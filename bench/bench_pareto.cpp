// Pareto-frontier analysis over the Table-5 design space (§3.7: "XRBench
// reveals all individual scores to users to facilitate Pareto frontier
// analysis"). Objectives: real-time, energy, and QoE scores (all
// higher-is-better); one analysis per chip size over the benchmark-level
// averages, plus a per-scenario frontier for the most contested scenario.
//
// All 26 (design x chip size) points are evaluated by the parallel
// SweepEngine; results are bit-identical to a serial run (set
// XRBENCH_THREADS=0 for the single-thread baseline).

#include <iostream>

#include "core/pareto.h"
#include "core/sweep.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

namespace {

void report(const std::string& title, std::vector<core::ParetoPoint> points,
            util::CsvWriter& csv, const std::string& tag) {
  const auto frontier = core::pareto_frontier(points);
  std::cout << "=== " << title << " ===\n\n";
  util::TablePrinter table(
      {"Design", "Realtime", "Energy", "QoE", "On frontier"});
  for (const auto& p : points) {
    table.add_row({p.label, util::fmt_double(p.objectives[0]),
                   util::fmt_double(p.objectives[1]),
                   util::fmt_double(p.objectives[2]),
                   p.dominated ? "" : "  *"});
    csv.row({tag, p.label, util::CsvWriter::cell(p.objectives[0]),
             util::CsvWriter::cell(p.objectives[1]),
             util::CsvWriter::cell(p.objectives[2]),
             p.dominated ? "0" : "1"});
  }
  table.print(std::cout);
  std::cout << "Frontier: ";
  for (std::size_t i : frontier) std::cout << points[i].label << " ";
  std::cout << "\n\n";
}

}  // namespace

int main() {
  core::HarnessOptions opt;
  opt.dynamic_trials = 10;
  util::CsvWriter csv("bench_output/pareto_frontier.csv");
  csv.header({"analysis", "design", "realtime", "energy", "qoe",
              "on_frontier"});

  // One sweep point per (design, chip size); the engine fans the
  // config x scenario x trial grid out across workers.
  std::vector<core::SweepPoint> points;
  for (std::int64_t pes : {4096ll, 8192ll}) {
    for (char id : hw::accelerator_ids()) {
      points.push_back({std::string(1, id) + "@" + std::to_string(pes),
                        hw::make_accelerator(id, pes), opt});
    }
  }

  core::SweepEngine engine;
  std::cout << "Evaluating " << points.size() << " design points on "
            << engine.num_threads() << " worker threads...\n\n";
  const auto outcomes = engine.run_suite_points(points);

  std::size_t idx = 0;
  for (std::int64_t pes : {4096ll, 8192ll}) {
    std::vector<core::ParetoPoint> avg_points;
    std::vector<core::ParetoPoint> ar_points;
    for (char id : hw::accelerator_ids()) {
      (void)id;
      const auto& out = outcomes[idx];
      avg_points.push_back(core::make_point(points[idx].label, out.score));
      ar_points.push_back(
          core::make_point(points[idx].label, out.score.scenarios[5]));
      ++idx;
    }
    report("Benchmark-average frontier, " + std::to_string(pes) + " PEs",
           std::move(avg_points), csv, "avg_" + std::to_string(pes));
    report("AR Gaming frontier, " + std::to_string(pes) + " PEs",
           std::move(ar_points), csv, "ar_gaming_" + std::to_string(pes));
  }
  std::cout << "CSV written to bench_output/pareto_frontier.csv\n";
  return 0;
}
