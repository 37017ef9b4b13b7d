// Cost-model introspection: per-layer latency/energy breakdown of every
// unit model under each dataflow on a 4K-PE array. This is the data that
// explains the dataflow-affinity effects behind Figures 5-7 (which layer
// families bind to compute vs NoC vs DRAM under WS/OS/RS), dumped as CSV
// with a per-model summary table.

#include <algorithm>
#include <iostream>
#include <vector>

#include "costmodel/cost_model.h"
#include "hw/dvfs.h"
#include "models/zoo.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  costmodel::AnalyticalCostModel cm;
  util::CsvWriter csv("bench_output/costmodel_layers.csv");
  csv.header({"model", "dataflow", "layer", "op", "macs", "compute_cycles",
              "noc_cycles", "dram_cycles", "latency_ms", "energy_mj",
              "utilization"});

  util::TablePrinter summary({"Model", "Dataflow", "Latency (ms)",
                              "Energy (mJ)", "Avg util",
                              "Bound (compute/noc/dram %)"});

  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    for (auto df : {costmodel::Dataflow::kWS, costmodel::Dataflow::kOS,
                    costmodel::Dataflow::kRS}) {
      costmodel::SubAccelConfig accel;
      accel.id = "probe";
      accel.dataflow = df;
      accel.num_pes = 4096;
      const auto mc = cm.model_cost(graph, accel);
      double compute_bound = 0, noc_bound = 0, dram_bound = 0;
      for (std::size_t i = 0; i < mc.layers.size(); ++i) {
        const auto& lc = mc.layers[i];
        const auto& layer = graph.layers()[i];
        csv.row({models::task_code(t), costmodel::dataflow_name(df),
                 layer.name, costmodel::op_type_name(layer.type),
                 util::CsvWriter::cell(layer.macs()),
                 util::CsvWriter::cell(lc.compute_cycles),
                 util::CsvWriter::cell(lc.noc_cycles),
                 util::CsvWriter::cell(lc.dram_cycles),
                 util::CsvWriter::cell(lc.latency_ms),
                 util::CsvWriter::cell(lc.energy_mj),
                 util::CsvWriter::cell(lc.utilization)});
        const double m =
            std::max({lc.compute_cycles, lc.noc_cycles, lc.dram_cycles});
        if (m == lc.compute_cycles) compute_bound += lc.latency_ms;
        else if (m == lc.noc_cycles) noc_bound += lc.latency_ms;
        else dram_bound += lc.latency_ms;
      }
      const double total = compute_bound + noc_bound + dram_bound;
      summary.add_row(
          {models::task_code(t), costmodel::dataflow_name(df),
           util::fmt_double(mc.latency_ms, 2),
           util::fmt_double(mc.energy_mj, 2),
           util::fmt_double(mc.avg_utilization, 2),
           util::fmt_percent(compute_bound / total, 0) + "/" +
               util::fmt_percent(noc_bound / total, 0) + "/" +
               util::fmt_percent(dram_bound / total, 0)});
    }
  }
  std::cout << "=== Per-model cost breakdown on a 4K-PE array ===\n\n";
  summary.print(std::cout);
  std::cout << "\nPer-layer CSV written to bench_output/costmodel_layers.csv\n";

  // --- All-levels contrast: per-level walk vs the level-batched kernel. ---
  // One lane per level (model_cost_at) vs all levels in one layer walk,
  // over the whole zoo with the default five-point DVFS ladder attached.
  // Neither path touches the model-level memo.
  const auto ladder = hw::default_dvfs_state(1.0);
  costmodel::SubAccelConfig dvfs_accel;
  dvfs_accel.id = "probe-dvfs";
  dvfs_accel.dataflow = costmodel::Dataflow::kWS;
  dvfs_accel.num_pes = 4096;
  dvfs_accel.dvfs = ladder;

  costmodel::AnalyticalCostModel per_level_cm;
  std::vector<std::vector<costmodel::ModelCost>> per_level_results;
  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    std::vector<costmodel::ModelCost> levels;
    for (std::size_t lvl = 0; lvl < ladder.num_levels(); ++lvl) {
      levels.push_back(per_level_cm.model_cost_at(graph, dvfs_accel, lvl));
    }
    per_level_results.push_back(std::move(levels));
  }

  costmodel::AnalyticalCostModel batched_cm;
  std::vector<std::vector<costmodel::ModelCost>> batched_results;
  for (models::TaskId t : models::all_tasks()) {
    batched_results.push_back(
        batched_cm.model_cost_all_levels(models::model_graph(t), dvfs_accel));
  }

  // Deterministic equality guard: the two paths must agree bit-exactly.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < batched_results.size(); ++i) {
    for (std::size_t lvl = 0; lvl < batched_results[i].size(); ++lvl) {
      const auto& a = per_level_results[i][lvl];
      const auto& b = batched_results[i][lvl];
      if (a.latency_ms != b.latency_ms || a.energy_mj != b.energy_mj ||
          a.static_energy_mj != b.static_energy_mj ||
          a.avg_utilization != b.avg_utilization) {
        ++mismatches;
      }
    }
  }
  std::cout << "\n=== All-levels kernel: " << ladder.num_levels()
            << "-level ladder over the zoo ===\n\n"
            << "per-level vs batched mismatches: " << mismatches << "\n";
  return mismatches == 0 ? 0 : 1;
}
