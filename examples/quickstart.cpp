// Quickstart: benchmark one accelerator design on the full XRBench suite.
//
//   ./quickstart [accelerator A..M] [total PEs]
//
// Builds the Table-5 design, runs all seven Table-2 usage scenarios through
// the harness, and prints the Figure-5-style score breakdown plus the
// overall XRBench SCORE.

#include <iostream>
#include <stdexcept>
#include <string>

#include "core/harness.h"
#include "core/report.h"
#include "util/ini.h"

using namespace xrbench;

int main(int argc, char** argv) {
  // 1. Pick a hardware design (Table 5). Resources follow the paper's §4.1
  //    chip: 256 GB/s NoC, 8 MiB SRAM, 1 GHz, partitioned per sub-accel.
  const std::string id = argc > 1 ? argv[1] : "J";
  const std::string pes = argc > 2 ? argv[2] : "8192";
  hw::AcceleratorSystem system;
  try {
    const auto total_pes = util::parse_number<std::int64_t>(pes);
    if (id.size() != 1 || !total_pes) {
      throw std::invalid_argument("expected one accelerator letter and an "
                                  "integer PE count, got '" + id + "' '" +
                                  pes + "'");
    }
    system = hw::make_accelerator(id[0], *total_pes);
  } catch (const std::invalid_argument& e) {
    std::cerr << "quickstart: " << e.what()
              << "\nusage: quickstart [accelerator A..M] [total PEs]\n";
    return 2;
  }
  std::cout << "Accelerator " << system.id << " ("
            << hw::accel_style_name(system.style) << ", "
            << system.dataflow_desc << ", " << system.total_pes()
            << " PEs)\n\n";

  // 2. Create the harness. Defaults: latency-greedy scheduler, 1 s runs,
  //    jitter on, paper scoring constants (k=15, Enmax=1500 mJ).
  core::Harness harness(system);

  // 3. Run the whole benchmark suite.
  const auto outcome = harness.run_suite();

  // 4. Report.
  core::print_benchmark_report(std::cout, outcome);
  std::cout << "\nXRBench SCORE: " << outcome.score.overall << "\n";

  // 5. Drill into one scenario (per-model frames, drops, unit scores). Its
  //    latency tails come from its final trial, re-run at that trial's seed.
  const std::size_t last = outcome.trials.size() - 1;
  const auto run = harness.run_once(
      workload::benchmark_suite()[last],
      core::last_trial_seed(harness.options(), outcome.trials[last]));
  std::cout << "\n";
  core::print_scenario_report(std::cout, outcome.score.scenarios[last],
                              outcome.trials[last], run);
  return 0;
}
