// Sweep-throughput scaling over the Table-5 design family.
//
// Runs the full (design x scenario x trial) suite sweep — the shape behind
// Table 5 and the Pareto cascade — at several SweepEngine worker counts and
// reports trial jobs/sec plus speedup over the 1-thread baseline into
// BENCH_sweep_scaling.json, together with the model-level memo hit rate.
// This is the bench that turns the ROADMAP's ">= Nx on real parallel
// hardware" from an assertion into a measurement.
//
// Output contract (CI relies on it):
//   stdout — the deterministic score report only. Byte-identical for every
//            worker count (the sweep engine's serial/parallel contract), so
//            CI diffs stdout across XRBENCH_THREADS values.
//   stderr — throughput/timing lines (inherently nondeterministic).
//
// Every worker count runs the sweep twice back to back: once as the
// environment configures the pool and once with XRBENCH_PIN=1 (pinned
// sweep: pinned_jobs_per_sec_tN / pinned_speedup_tN, plus a `pinned` flag
// from SweepEngine::workers_pinned(); scores must stay byte-identical).
// Which of the two goes first alternates from one worker count to the
// next, so a host that speeds up or slows down over the run does not
// favour either side of the pinning ratio.
//
// Two further phases isolate the cost-model rungs of the raw-speed ladder:
//   cold build — CostTable construction for the DVFS-laddered design family
//     on a fresh cost model, every (model, sub-accelerator) pair one layer
//     walk across its whole ladder (cold_build_batched_ms);
//   warm memo — the same builds again on the same cost model, now pure
//     model-level memo hits (warm_build_ms, model-memo hit rate).
//
// XRBENCH_THREADS, when set, replaces the default {1, 2, 4, 8} sweep with
// that single worker count (0 = inline serial baseline).

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/sweep.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "util/affinity.h"
#include "util/bench_json.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/scenario.h"

using namespace xrbench;

namespace {

std::vector<core::SweepPoint> table5_points() {
  core::HarnessOptions opt;
  // Short runs, several dynamic trials: thousands of sub-millisecond jobs,
  // exactly the regime where queue overhead used to dominate.
  opt.run.duration_ms = 500.0;
  opt.dynamic_trials = 8;
  std::vector<core::SweepPoint> points;
  for (char id : hw::accelerator_ids()) {
    points.push_back({std::string(1, id) + "@4096",
                      hw::make_accelerator(id, 4096), opt});
  }
  return points;
}

std::int64_t count_trial_jobs(const std::vector<core::SweepPoint>& points) {
  const auto& suite = workload::benchmark_suite();
  std::int64_t jobs = 0;
  for (const auto& point : points) {
    for (const auto& scenario : suite) {
      jobs += workload::is_dynamic_scenario(scenario)
                  ? std::max(1, point.options.dynamic_trials)
                  : 1;
    }
  }
  return jobs;
}

}  // namespace

int main() {
  util::BenchJson bench("sweep_scaling");

  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (std::getenv("XRBENCH_THREADS") != nullptr) {
    thread_counts = {util::ThreadPool::default_num_threads()};
  }

  const auto points = table5_points();
  const std::int64_t jobs = count_trial_jobs(points);
  // The suite runs once unpinned and once pinned per worker count.
  bench.set_runs(2 * jobs * static_cast<std::int64_t>(thread_counts.size()));

#if !defined(_WIN32)
  const char* pin_env = std::getenv("XRBENCH_PIN");
  const bool pin_set = pin_env != nullptr;
  const std::string pin_saved = pin_set ? pin_env : "";
  // Pinned sweeps force XRBENCH_PIN=1 while their pool starts; the others
  // see the environment the bench was launched with.
  const auto set_pin_env = [pin_set, &pin_saved](bool pinned) {
    if (pinned) {
      ::setenv("XRBENCH_PIN", "1", 1);
    } else if (pin_set) {
      ::setenv("XRBENCH_PIN", pin_saved.c_str(), 1);
    } else {
      ::unsetenv("XRBENCH_PIN");
    }
  };
#else
  const auto set_pin_env = [](bool) {};
#endif

  std::vector<core::SuitePointScore> reference;
  double base_jobs_per_sec = 0.0;
  bool all_pinned = util::affinity::supported();
  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const std::size_t n = thread_counts[ti];
    const std::string suffix = "_t" + std::to_string(n);
    const bool pinned_first = ti % 2 == 1;
    for (const bool pinned : {pinned_first, !pinned_first}) {
      set_pin_env(pinned);
      core::SweepEngine engine(n);
      set_pin_env(false);
      const double t0 = bench.elapsed_ms();
      auto outcomes = engine.run_suite_points(points);
      const double sweep_ms = bench.elapsed_ms() - t0;
      const double jobs_per_sec =
          sweep_ms > 0.0 ? static_cast<double>(jobs) / (sweep_ms / 1000.0)
                         : 0.0;
      const std::string prefix = pinned ? "pinned_" : "";
      if (!pinned && ti == 0) base_jobs_per_sec = jobs_per_sec;
      bench.add_metric(prefix + "jobs_per_sec" + suffix, jobs_per_sec);
      bench.add_metric(prefix + "speedup" + suffix,
                       base_jobs_per_sec > 0.0
                           ? jobs_per_sec / base_jobs_per_sec
                           : 0.0);
      std::cerr << prefix << "threads=" << n << "  sweep_ms=" << sweep_ms
                << "  jobs_per_sec=" << jobs_per_sec;
      if (pinned) {
        if (n > 0 && !engine.workers_pinned()) all_pinned = false;
        std::cerr << "  workers_pinned=" << engine.workers_pinned() << "\n";
      } else {
        const double hit_rate = engine.model_memo_stats().hit_rate();
        bench.add_metric("sweep_ms" + suffix, sweep_ms);
        bench.add_metric("model_memo_hit_rate" + suffix, hit_rate);
        std::cerr << "  model_memo_hit_rate=" << hit_rate << "\n";
      }

      if (reference.empty()) {
        reference = std::move(outcomes);
        continue;
      }
      // The determinism contract, self-checked across worker counts and
      // pinning: every score must be bit-identical to the first run's.
      for (std::size_t p = 0; p < points.size(); ++p) {
        if (outcomes[p].score.overall != reference[p].score.overall ||
            outcomes[p].score.realtime != reference[p].score.realtime ||
            outcomes[p].score.energy != reference[p].score.energy ||
            outcomes[p].score.qoe != reference[p].score.qoe) {
          std::cerr << "DETERMINISM VIOLATION: " << (pinned ? "pinned " : "")
                    << "point " << points[p].label << " differs at " << n
                    << " threads\n";
          return 1;
        }
      }
    }
  }

  bench.add_metric("trial_jobs", static_cast<double>(jobs));
  bench.add_metric("design_points", static_cast<double>(points.size()));
  bench.add_metric("pinned", all_pinned ? 1.0 : 0.0);

  // --- Cold batched build, then warm. -------------------------------------
  // DVFS-laddered systems (5 levels each): one layer walk per (task,
  // sub-accelerator) covers the whole ladder.
  std::vector<hw::AcceleratorSystem> ladder_systems;
  for (char id : hw::accelerator_ids()) {
    ladder_systems.push_back(
        hw::with_default_dvfs(hw::make_accelerator(id, 4096)));
  }

  // Cold batched build: full CostTable construction (every level's totals
  // and layer prefixes from one walk) on a fresh cost model.
  costmodel::AnalyticalCostModel build_cm;
  std::vector<std::unique_ptr<runtime::CostTable>> tables;
  const double t_cold = bench.elapsed_ms();
  for (const auto& sys : ladder_systems) {
    tables.push_back(std::make_unique<runtime::CostTable>(sys, build_cm));
  }
  const double cold_ms = bench.elapsed_ms() - t_cold;

  // Warm rebuild: identical designs on the same model — pure memo hits.
  const double t_warm = bench.elapsed_ms();
  for (const auto& sys : ladder_systems) {
    tables.push_back(std::make_unique<runtime::CostTable>(sys, build_cm));
  }
  const double warm_ms = bench.elapsed_ms() - t_warm;
  const auto model_memo = build_cm.model_memo_stats();

  bench.add_metric("cold_build_batched_ms", cold_ms);
  bench.add_metric("warm_build_ms", warm_ms);
  bench.add_metric("warm_build_speedup",
                   warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  bench.add_metric("model_memo_hit_rate", model_memo.hit_rate());
  bench.add_metric("model_memo_entries",
                   static_cast<double>(model_memo.entries));
  std::cerr << "cold build: batched=" << cold_ms << "ms\n"
            << "warm rebuild: " << warm_ms << "ms  model_memo_hit_rate="
            << model_memo.hit_rate() << "\n";

  // Deterministic report (stdout): one score table for the whole family.
  std::cout << "=== Sweep scaling: Table-5 family, full suite ===\n\n";
  util::TablePrinter table(
      {"Design", "Overall", "Realtime", "Energy", "QoE"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    table.add_row({points[p].label, util::fmt_double(reference[p].score.overall),
                   util::fmt_double(reference[p].score.realtime),
                   util::fmt_double(reference[p].score.energy),
                   util::fmt_double(reference[p].score.qoe)});
  }
  table.print(std::cout);
  return 0;
}
