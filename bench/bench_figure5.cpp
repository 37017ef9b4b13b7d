// Regenerates paper Figure 5: score breakdowns (real-time, energy, QoE,
// overall XRBench score) for every Table-5 accelerator (A-M) at 4K and 8K
// PEs, per usage scenario (a-g) plus the cross-scenario average (h).
//
// Also prints the paper's §4.2.1 spot checks alongside the data.

#include <iostream>

#include "core/harness.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

namespace {

void spot_checks(const std::vector<core::SuitePointScore>& outs,
                 std::int64_t pes) {
  if (pes != 8192) return;
  // §4.2.1: accelerator A (8K) on Outdoor Activity B — high real-time score
  // does not imply a good overall score; compare its energy against the
  // most efficient design.
  const core::SuitePointScore* a = nullptr;
  double best_energy = 1e300;
  std::string best_id;
  for (const auto& o : outs) {
    if (o.accelerator_id == "A") a = &o;
    const double e = o.score.scenarios[3].total_energy_mj;
    if (e < best_energy) {
      best_energy = e;
      best_id = o.accelerator_id;
    }
  }
  if (a == nullptr) return;
  const auto& ob = a->score.scenarios[3];
  std::cout << "\n[4.2.1 spot check] Accelerator A (8K) on Outdoor Activity "
               "B: realtime="
            << util::fmt_double(ob.realtime) << ", drop rate="
            << util::fmt_percent(ob.frame_drop_rate) << ", energy="
            << util::fmt_double(ob.total_energy_mj, 1) << " mJ ("
            << util::fmt_percent(ob.total_energy_mj / best_energy - 1.0)
            << " vs most efficient design " << best_id << ")\n";
}

}  // namespace

int main() {
  core::HarnessOptions opt;
  opt.dynamic_trials = 20;

  util::CsvWriter csv("bench_output/figure5_scores.csv");
  csv.header({"total_pes", "accelerator", "style", "scenario", "realtime",
              "energy", "qoe", "overall", "drop_rate"});

  for (std::int64_t pes : {4096ll, 8192ll}) {
    std::vector<core::SuitePointScore> outs;
    for (char id : hw::accelerator_ids()) {
      const auto sys = hw::make_accelerator(id, pes);
      core::Harness harness(sys, opt);
      outs.push_back(harness.run_suite());
      for (const auto& sc : outs.back().score.scenarios) {
        csv.row({util::CsvWriter::cell(pes), outs.back().accelerator_id,
                 hw::accel_style_name(sys.style), sc.scenario_name,
                 util::CsvWriter::cell(sc.realtime),
                 util::CsvWriter::cell(sc.energy),
                 util::CsvWriter::cell(sc.qoe),
                 util::CsvWriter::cell(sc.overall),
                 util::CsvWriter::cell(sc.frame_drop_rate)});
      }
    }

    const auto& scenarios = workload::benchmark_suite();
    for (std::size_t s = 0; s <= scenarios.size(); ++s) {
      const bool avg_row = s == scenarios.size();
      std::cout << "\n=== Figure 5 (" << static_cast<char>('a' + s) << ") "
                << (avg_row ? std::string("Average across scenarios")
                            : scenarios[s].name)
                << " — " << pes << " PEs ===\n\n";
      util::TablePrinter table(
          {"Acc", "Style", "Realtime", "Energy", "QoE", "Overall"});
      std::string best_id;
      double best = -1.0;
      for (const auto& o : outs) {
        const double rt = avg_row ? o.score.realtime
                                  : o.score.scenarios[s].realtime;
        const double en = avg_row ? o.score.energy
                                  : o.score.scenarios[s].energy;
        const double qoe = avg_row ? o.score.qoe : o.score.scenarios[s].qoe;
        const double overall =
            avg_row ? o.score.overall : o.score.scenarios[s].overall;
        if (overall > best) {
          best = overall;
          best_id = o.accelerator_id;
        }
        const auto sys_style =
            hw::make_accelerator(o.accelerator_id[0], pes).style;
        table.add_row({o.accelerator_id, hw::accel_style_name(sys_style),
                       util::fmt_double(rt), util::fmt_double(en),
                       util::fmt_double(qoe), util::fmt_double(overall)});
      }
      table.print(std::cout);
      std::cout << "Best design: " << best_id << " (overall "
                << util::fmt_double(best) << ")\n";
    }
    spot_checks(outs, pes);
  }
  std::cout << "\nCSV written to bench_output/figure5_scores.csv\n";
  return 0;
}
