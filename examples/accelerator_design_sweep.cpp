// Design-space exploration example: sweep custom hardware configurations
// (PE count, dataflow mix, off-chip bandwidth) beyond the 13 Table-5
// presets, and rank them by XRBench SCORE per joule — the kind of co-design
// loop the paper motivates (§4.4 Observation 1: "XR systems need to be
// co-designed with usage scenarios").
//
// The candidate grid is evaluated by the parallel SweepEngine (results are
// bit-identical to a serial run; set XRBENCH_THREADS to pin the worker
// count).

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/sweep.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  core::HarnessOptions opt;
  opt.dynamic_trials = 10;

  std::vector<core::SweepPoint> points;
  for (std::int64_t pes : {2048ll, 4096ll, 8192ll}) {
    for (char design : {'A', 'D', 'J', 'M'}) {
      hw::ChipResources chip;
      chip.total_pes = pes;
      points.push_back({std::string(1, design) + "@" + std::to_string(pes),
                        hw::make_accelerator(design, chip), opt});
    }
  }
  // One bandwidth-starved variant: same PEs, half the off-chip bandwidth.
  {
    hw::ChipResources chip;
    chip.total_pes = 8192;
    chip.offchip_gbps /= 2.0;
    points.push_back(
        {"J@8192/half-DRAM", hw::make_accelerator('J', chip), opt});
  }

  core::SweepEngine engine;
  std::cout << "Sweeping " << points.size() << " candidate designs on "
            << engine.num_threads() << " worker threads...\n\n";
  const auto outcomes = engine.run_suite_points(points);

  util::TablePrinter table({"Design", "XRBench SCORE", "Realtime", "QoE",
                            "Avg energy/scenario (mJ)", "Score per joule"});
  struct Row {
    std::string label;
    double score, rt, qoe, energy, per_joule;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& out = outcomes[i];
    double energy = 0.0;
    for (const auto& s : out.score.scenarios) energy += s.total_energy_mj;
    energy /= static_cast<double>(out.score.scenarios.size());
    rows.push_back({points[i].label, out.score.overall, out.score.realtime,
                    out.score.qoe, energy,
                    out.score.overall / (energy / 1000.0)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.score > b.score; });
  for (const auto& r : rows) {
    table.add_row({r.label, util::fmt_double(r.score), util::fmt_double(r.rt),
                   util::fmt_double(r.qoe), util::fmt_double(r.energy, 1),
                   util::fmt_double(r.per_joule, 2)});
  }
  table.print(std::cout);
  std::cout << "\nRanked by XRBench SCORE; the per-joule column shows the "
               "battery-life trade-off (paper §2.2.4).\n";
  return 0;
}
