// Regenerates paper Table 5 (accelerator styles A-M) and reports the
// per-sub-accelerator resource split plus per-model execution latencies of
// the analytical cost model (the data behind the scheduling results).
//
// The 26 cost tables (13 designs x 2 chip sizes) are built in parallel by
// the SweepEngine; the shared cost model's model-level all-levels memo means
// identical (model, sub-accelerator partition) pairs across designs are
// evaluated only once.

#include <iostream>

#include "core/sweep.h"
#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  std::cout << "=== Table 5: Accelerator styles ===\n\n";
  util::TablePrinter table(
      {"Acc. ID", "Acc. Style", "Dataflow", "Sub-accels", "PEs per sub-accel"});
  for (char id : hw::accelerator_ids()) {
    const auto sys = hw::make_accelerator(id, 4096);
    std::string pes;
    for (const auto& sa : sys.sub_accels) {
      if (!pes.empty()) pes += " + ";
      pes += std::to_string(sa.num_pes);
    }
    table.add_row({sys.id, hw::accel_style_name(sys.style), sys.dataflow_desc,
                   std::to_string(sys.num_sub_accels()), pes});
  }
  table.print(std::cout);

  costmodel::AnalyticalCostModel cm;
  core::SweepEngine engine;
  util::CsvWriter csv("bench_output/table5_latencies.csv");
  csv.header({"accelerator", "total_pes", "sub_accel", "dataflow", "task",
              "latency_ms", "energy_mj", "utilization"});
  for (std::int64_t pes : {4096ll, 8192ll}) {
    std::cout << "\n=== Per-model latency (ms) on each sub-accelerator, "
              << pes << " PEs ===\n\n";
    std::vector<std::string> cols = {"Acc", "Sub", "Dataflow"};
    for (models::TaskId t : models::all_tasks()) {
      cols.push_back(models::task_code(t));
    }
    util::TablePrinter lat(cols);
    const auto systems = hw::all_accelerators(pes);
    const auto costs = engine.build_cost_tables(systems, cm);
    for (std::size_t si = 0; si < systems.size(); ++si) {
      const auto& sys = systems[si];
      for (std::size_t sa = 0; sa < sys.sub_accels.size(); ++sa) {
        std::vector<std::string> row = {
            sys.id, std::to_string(sa),
            costmodel::dataflow_name(sys.sub_accels[sa].dataflow)};
        for (models::TaskId t : models::all_tasks()) {
          const auto& c = costs[si]->cost(t, sa);
          row.push_back(util::fmt_double(c.latency_ms, 1));
          csv.row({sys.id, util::CsvWriter::cell(pes),
                   util::CsvWriter::cell(sa),
                   costmodel::dataflow_name(sys.sub_accels[sa].dataflow),
                   models::task_code(t), util::CsvWriter::cell(c.latency_ms),
                   util::CsvWriter::cell(c.energy_mj),
                   util::CsvWriter::cell(c.avg_utilization)});
        }
        lat.add_row(row);
      }
    }
    lat.print(std::cout);
  }
  std::cout << "\nCSV written to bench_output/table5_latencies.csv\n";
  const auto memo = cm.model_memo_stats();
  std::cout << "Cost-model memo entries after the sweep: " << memo.entries
            << " model-level\n";
  return 0;
}
