// Ablation: scoring and load-generation parameters.
//  (1) sigmoid steepness k (Definition 10 / Figure 8's "deadline
//      sensitivity" knob),
//  (2) Enmax (Definition 11),
//  (3) jitter on/off (Table 3),
//  (4) device-baseline power amortization (energy calibration, DESIGN.md).
// Each sweep runs the AR Gaming scenario on accelerator J at 8K PEs.

#include <iostream>

#include "core/harness.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

namespace {

core::ScenarioOutcome run_with(const core::HarnessOptions& opt) {
  core::Harness harness(hw::make_accelerator('J', 8192), opt);
  return harness.run_scenario(workload::scenario_by_name("AR Gaming"));
}

}  // namespace

int main() {
  util::CsvWriter csv("bench_output/ablation_score_params.csv");
  csv.header({"sweep", "value", "realtime", "energy", "qoe", "overall"});
  auto emit = [&csv](const std::string& sweep, double value,
                     const core::ScenarioOutcome& out) {
    csv.row({sweep, util::CsvWriter::cell(value),
             util::CsvWriter::cell(out.score.realtime),
             util::CsvWriter::cell(out.score.energy),
             util::CsvWriter::cell(out.score.qoe),
             util::CsvWriter::cell(out.score.overall)});
  };

  {
    std::cout << "=== Sweep 1: real-time sigmoid steepness k (per ms) ===\n\n";
    util::TablePrinter t({"k", "Realtime", "Overall"});
    for (double k : {0.0, 1.0, 5.0, 15.0, 50.0, 200.0}) {
      core::HarnessOptions opt;
      opt.score.k = k;
      const auto out = run_with(opt);
      t.add_row({util::fmt_double(k, 0), util::fmt_double(out.score.realtime),
                 util::fmt_double(out.score.overall)});
      emit("k", k, out);
    }
    t.print(std::cout);
    std::cout << "k=0 collapses the real-time score to 0.5 everywhere "
                 "(deadline-insensitive, Figure 8).\n\n";
  }

  {
    std::cout << "=== Sweep 2: Enmax (mJ) ===\n\n";
    util::TablePrinter t({"Enmax", "Energy", "Overall"});
    for (double enmax : {250.0, 500.0, 1000.0, 1500.0, 3000.0}) {
      core::HarnessOptions opt;
      opt.score.enmax_mj = enmax;
      const auto out = run_with(opt);
      t.add_row({util::fmt_double(enmax, 0),
                 util::fmt_double(out.score.energy),
                 util::fmt_double(out.score.overall)});
      emit("enmax_mj", enmax, out);
    }
    t.print(std::cout);
    std::cout << "Smaller Enmax discriminates energy harder; the paper "
                 "default is 1500 mJ.\n\n";
  }

  {
    std::cout << "=== Sweep 3: input jitter on/off ===\n\n";
    util::TablePrinter t({"Jitter", "Realtime", "QoE", "Overall"});
    for (bool jitter : {false, true}) {
      core::HarnessOptions opt;
      opt.run.enable_jitter = jitter;
      const auto out = run_with(opt);
      t.add_row({jitter ? "on" : "off", util::fmt_double(out.score.realtime),
                 util::fmt_double(out.score.qoe),
                 util::fmt_double(out.score.overall)});
      emit("jitter", jitter ? 1.0 : 0.0, out);
    }
    t.print(std::cout);
    std::cout << "Sensor jitter (±0.05-0.1 ms) shifts request times but is "
                 "small against 16-333 ms frame windows.\n\n";
  }

  {
    std::cout << "=== Sweep 4: device baseline power (W) ===\n\n";
    util::TablePrinter t({"Baseline W", "Energy", "Overall"});
    for (double w : {0.0, 1.0, 2.0, 4.0}) {
      core::HarnessOptions opt;
      opt.run.system_baseline_w = w;
      const auto out = run_with(opt);
      t.add_row({util::fmt_double(w, 1), util::fmt_double(out.score.energy),
                 util::fmt_double(out.score.overall)});
      emit("baseline_w", w, out);
    }
    t.print(std::cout);
  }

  std::cout << "CSV written to bench_output/ablation_score_params.csv\n";
  return 0;
}
