// Program-level ablation: scores the Table-5 accelerator family over the
// three shipped ScenarioPrograms (multi-phase XR sessions) under every
// registered DVFS governor — the ROADMAP's "score a Table-5 design over a
// session mix of programs" bench. Where bench_ablation_dvfs asks "which
// governor wins on one steady scenario", this asks the session-level
// question: which (design, governor) pair holds up when the workload
// hands off, peaks and bursts across phases.
//
// Every (design x program x governor) point runs through the SweepEngine,
// so serial (XRBENCH_THREADS=0) and parallel runs produce byte-identical
// reports (CI diffs them).

#include <iostream>

#include "core/sweep.h"
#include "hw/accelerator.h"
#include "runtime/policy_registry.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/scenario_program.h"

using namespace xrbench;

int main() {
  util::CsvWriter csv("bench_output/program_ablation.csv");
  csv.header({"accelerator", "program", "governor", "realtime", "energy",
              "qoe", "overall", "drop_rate"});

  // The full Table-5 family at the paper's 4K-PE chip size, each with the
  // default five-point V/f ladder so governors have levels to choose.
  std::vector<hw::AcceleratorSystem> family;
  for (char id : hw::accelerator_ids()) {
    family.push_back(hw::with_default_dvfs(hw::make_accelerator(id, 4096)));
  }
  const auto& programs = workload::extension_programs();
  const auto governors = runtime::PolicyRegistry::instance().governor_names();

  std::vector<core::ProgramSweepPoint> points;
  for (const auto& system : family) {
    for (const auto& program : programs) {
      for (const auto& governor : governors) {
        core::HarnessOptions opt;
        opt.governor = governor;
        // Sessions are multi-second already; a few trials keep the full
        // family x program x governor grid affordable in CI.
        opt.dynamic_trials = 3;
        core::ProgramSweepPoint point;
        point.label = system.id + "/" + program.name + "/" + governor;
        point.system = system;
        point.options = opt;
        point.program = program;
        // The sweep varies the governor explicitly; a program's own policy
        // preferences would silently override the axis under study.
        point.program.scheduler.clear();
        point.program.governor.clear();
        points.push_back(std::move(point));
      }
    }
  }

  core::SweepEngine engine;
  const auto outcomes = engine.run_program_points(points);

  const std::size_t per_program = governors.size();
  const std::size_t per_design = programs.size() * per_program;
  for (std::size_t pr = 0; pr < programs.size(); ++pr) {
    std::cout << "=== Program: " << programs[pr].name
              << " (Table-5 family @ 4K PEs, 5 V/f levels) ===\n\n";
    util::TablePrinter table({"Governor", "Mean overall", "Mean QoE",
                              "Best design", "Best overall"});
    for (std::size_t g = 0; g < per_program; ++g) {
      double sum_overall = 0.0;
      double sum_qoe = 0.0;
      double best_overall = -1.0;
      std::string best_design;
      for (std::size_t d = 0; d < family.size(); ++d) {
        const std::size_t i = d * per_design + pr * per_program + g;
        const auto& out = outcomes[i];
        sum_overall += out.score.overall;
        sum_qoe += out.score.qoe;
        if (out.score.overall > best_overall) {
          best_overall = out.score.overall;
          best_design = family[d].id;
        }
        csv.row({family[d].id, programs[pr].name, governors[g],
                 util::CsvWriter::cell(out.score.realtime),
                 util::CsvWriter::cell(out.score.energy),
                 util::CsvWriter::cell(out.score.qoe),
                 util::CsvWriter::cell(out.score.overall),
                 util::CsvWriter::cell(out.score.frame_drop_rate)});
      }
      const auto n = static_cast<double>(family.size());
      table.add_row({governors[g], util::fmt_double(sum_overall / n),
                     util::fmt_double(sum_qoe / n), best_design,
                     util::fmt_double(best_overall)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Rows aggregate the 13 Table-5 designs; per-design scores are "
               "in bench_output/program_ablation.csv\n";
  return 0;
}
