// Scenario explorer: a small CLI for studying one usage scenario in depth —
// per-model frame accounting, execution timeline, per-inference CSV log.
//
//   ./scenario_explorer "<scenario name>" [accelerator A..M] [PEs] [seed]
//
// Example:
//   ./scenario_explorer "AR Assistant" M 8192 7

#include <iostream>
#include <stdexcept>
#include <string>

#include "core/harness.h"
#include "core/report.h"
#include "util/ini.h"

using namespace xrbench;

int main(int argc, char** argv) {
  const std::string scenario_name = argc > 1 ? argv[1] : "Social Interaction A";
  const std::string id = argc > 2 ? argv[2] : "J";
  const std::string pes = argc > 3 ? argv[3] : "4096";
  const std::string seed_text = argc > 4 ? argv[4] : "42";
  const auto seed = util::parse_number<std::uint64_t>(seed_text);
  hw::AcceleratorSystem system;
  try {
    const auto total_pes = util::parse_number<std::int64_t>(pes);
    if (id.size() != 1 || !total_pes || !seed) {
      throw std::invalid_argument(
          "expected one accelerator letter, an integer PE count and a "
          "non-negative integer seed, got '" + id + "' '" + pes + "' '" +
          seed_text + "'");
    }
    system = hw::make_accelerator(id[0], *total_pes);
  } catch (const std::invalid_argument& e) {
    std::cerr << "scenario_explorer: " << e.what()
              << "\nusage: scenario_explorer \"<scenario name>\" "
                 "[accelerator A..M] [PEs] [seed]\n";
    return 2;
  }

  const workload::UsageScenario* scenario = nullptr;
  try {
    scenario = &workload::scenario_by_name(scenario_name);
  } catch (const std::invalid_argument&) {
    std::cerr << "Unknown scenario '" << scenario_name << "'. Available:\n";
    for (const auto& s : workload::benchmark_suite()) {
      std::cerr << "  \"" << s.name << "\" — " << s.description << "\n";
    }
    return 1;
  }

  std::cout << "Scenario: " << scenario->name << " — "
            << scenario->description << "\nActive models:\n";
  for (const auto& m : scenario->models) {
    std::cout << "  " << models::task_code(m.task) << " @ " << m.target_fps
              << " FPS";
    if (m.depends_on) {
      std::cout << "  (depends on " << models::task_code(*m.depends_on)
                << ", " << workload::dependency_type_name(m.dependency)
                << ", p=" << m.trigger_probability << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\n";

  core::Harness harness(system);
  const auto run = harness.run_once(*scenario, *seed);
  const auto score = core::score_scenario(run, core::ScoreConfig{});
  core::print_scenario_report(std::cout, score, 1, run);
  std::cout << "\n";
  core::print_timeline(std::cout, run, /*until_ms=*/500.0,
                       /*resolution_ms=*/5.0);

  const auto csv_path = "scenario_explorer_log.csv";
  core::write_inference_log_csv(csv_path, run);
  std::cout << "\nPer-inference log written to " << csv_path << "\n";
  return 0;
}
