// Seeded invariant fuzzer over single-scenario ScenarioRunner runs. Each run
// draws a Table-5 design at 1-16 K PEs (with or without the default DVFS
// ladder), a Table-2 or extension scenario with mutated rates and trigger
// probabilities or a random mix of 1-6 models, any registered scheduler,
// governor and admission policy, and a random fault profile. Every run must
// keep the runner's invariants: the records account for every frame, each
// unit runs one inference at a time, the timeline and the telemetry busy
// time agree with the records, scores stay in [0, 1], and a reused
// RunScratch changes nothing.
//
// Scenario programs are not drawn. run_program starts each phase with every
// unit idle, although work the previous phase dispatched while draining
// past its window may still be running, so the session's spans on one unit
// can overlap at a phase boundary. Programs join this fuzzer once phase
// boundaries carry each unit's busy tail forward.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/aggregate.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/admission.h"
#include "runtime/cost_table.h"
#include "runtime/policy_registry.h"
#include "runtime/scenario_runner.h"
#include "workload/input_source.h"
#include "workload/scenario.h"

namespace xrbench::runtime {
namespace {

using workload::DependencyType;
using workload::UsageScenario;

/// One design with its cost table, built on first use.
struct Rig {
  hw::AcceleratorSystem system;
  std::unique_ptr<CostTable> table;
};

class RunnerFuzz {
 public:
  explicit RunnerFuzz(std::uint64_t seed) : rng_(seed) {}

  /// Draws one run, runs it on `scratch` and on a fresh arena, and checks
  /// both.
  void one_run(RunScratch& scratch) {
    const Rig& rig = draw_rig();
    const UsageScenario scenario = draw_scenario();
    RunConfig cfg;
    cfg.duration_ms = uniform(100.0, 1000.0);
    cfg.seed = rng_();
    cfg.enable_jitter = coin();
    cfg.faults = draw_faults();
    const auto& registry = PolicyRegistry::instance();
    const std::string sched = pick(registry.scheduler_names());
    const std::string gov = pick(registry.governor_names());
    const std::string adm = pick(registry.admission_names());
    SCOPED_TRACE(rig.system.id + " @ " +
                 std::to_string(rig.system.total_pes()) + " PEs, " +
                 scenario.name + ", " + sched + " / " + gov + " / " + adm +
                 ", seed " + std::to_string(cfg.seed) +
                 (cfg.faults.enabled() ? ", faulted" : ""));

    const ScenarioRunner runner(rig.system, *rig.table);
    const auto run_with = [&](RunScratch* s) {
      auto scheduler = registry.make_scheduler(sched);
      auto governor = registry.make_governor(gov);
      auto admission = registry.make_admission(adm);
      return runner.run(scenario, *scheduler, cfg, governor.get(), s,
                        admission.get());
    };
    ScenarioRunResult run = run_with(&scratch);
    check_invariants(run, rig, cfg.faults.enabled());
    expect_same_run(run, run_with(nullptr));
    scratch.recycle(std::move(run));
  }

 private:
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  bool coin() { return rng_() % 2 == 0; }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[rng_() % items.size()];
  }

  const Rig& draw_rig() {
    static constexpr std::int64_t kPes[] = {1024, 2048, 4096, 8192, 16384};
    const char id = static_cast<char>('A' + rng_() % 13);
    const std::int64_t pes = kPes[rng_() % 5];
    const bool dvfs = coin();
    Rig& rig = rigs_[{id, pes, dvfs}];
    if (!rig.table) {
      rig.system = hw::make_accelerator(id, pes);
      if (dvfs) rig.system = hw::with_default_dvfs(rig.system);
      rig.table = std::make_unique<CostTable>(rig.system, cost_model_);
    }
    return rig;
  }

  /// The highest rate `task` may run at: its driving sensor's rate.
  static double sensor_fps(models::TaskId task) {
    return workload::input_source(workload::driving_source(task)).fps;
  }

  UsageScenario draw_scenario() {
    if (rng_() % 3 == 0) {
      // A random mix of independent models at random rates.
      std::vector<models::TaskId> tasks(models::all_tasks().begin(),
                                        models::all_tasks().end());
      std::shuffle(tasks.begin(), tasks.end(), rng_);
      UsageScenario mix;
      mix.name = "random mix";
      const std::size_t n = 1 + rng_() % 6;
      for (std::size_t i = 0; i < n; ++i) {
        workload::ScenarioModel m;
        m.task = tasks[i];
        m.target_fps = sensor_fps(m.task) * uniform(0.05, 1.0);
        mix.models.push_back(m);
      }
      return mix;
    }
    UsageScenario s = coin() ? pick(workload::benchmark_suite())
                             : pick(workload::extension_scenarios());
    // Rates scale by up to 1.5x within the sensor rate; a data-dependent
    // model keeps its upstream's rate, and control edges fire at random.
    for (auto& m : s.models) {
      if (m.depends_on && m.dependency == DependencyType::kData) continue;
      m.target_fps =
          std::min(sensor_fps(m.task), m.target_fps * uniform(0.25, 1.5));
      if (m.dependency == DependencyType::kControl) {
        m.trigger_probability = uniform(0.0, 1.0);
      }
    }
    for (auto& m : s.models) {
      if (m.depends_on && m.dependency == DependencyType::kData) {
        m.target_fps = s.find(*m.depends_on)->target_fps;
      }
    }
    return s;
  }

  /// Fault-free half the time; otherwise each class fires with even odds.
  FaultSpec draw_faults() {
    FaultSpec f;
    if (coin()) return f;
    if (coin()) f.transient_rate = uniform(0.0, 0.3);
    if (coin()) {
      f.outage_rate_per_s = uniform(0.0, 5.0);
      f.outage_ms = uniform(1.0, 50.0);
    }
    if (coin()) {
      f.throttle_rate_per_s = uniform(0.0, 5.0);
      f.throttle_ms = uniform(1.0, 50.0);
      f.throttle_max_level = rng_() % 4;
    }
    f.max_retries = static_cast<int>(rng_() % 4);
    f.retry_backoff_ms = uniform(0.0, 5.0);
    f.checkpoint = coin();
    f.checkpoint_overhead_ms = uniform(0.0, 1.0);
    return f;
  }

  static void check_invariants(const ScenarioRunResult& run, const Rig& rig,
                               bool faulted) {
    const std::size_t units = rig.system.sub_accels.size();
    std::int64_t dropped = 0;
    std::vector<std::tuple<double, int, std::size_t, std::int64_t, double>>
        executed;
    for (const auto& m : run.per_model) {
      const RecordStore& r = m.records;
      std::int64_t ran = 0;
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (r.dropped()[i] != 0) {
          EXPECT_EQ(r.sub_accel()[i], -1);
          EXPECT_EQ(r.dvfs_level()[i], -1);
          continue;
        }
        ++ran;
        const int sa = r.sub_accel()[i];
        EXPECT_GE(r.dispatch_ms()[i], r.treq_ms()[i]);
        EXPECT_GT(r.complete_ms()[i], r.dispatch_ms()[i]);
        ASSERT_TRUE(sa >= 0 && static_cast<std::size_t>(sa) < units) << sa;
        EXPECT_GE(r.dvfs_level()[i], 0);
        EXPECT_LT(static_cast<std::size_t>(r.dvfs_level()[i]),
                  rig.table->num_levels(static_cast<std::size_t>(sa)));
        EXPECT_TRUE(std::isfinite(r.energy_mj()[i]));
        EXPECT_GT(r.energy_mj()[i], 0.0);
        executed.emplace_back(r.dispatch_ms()[i], sa,
                              models::task_index(r.task()[i]), r.frame()[i],
                              r.complete_ms()[i]);
      }
      EXPECT_EQ(ran, m.frames_executed);
      EXPECT_EQ(m.frames_executed + m.frames_dropped,
                static_cast<std::int64_t>(r.size()));
      EXPECT_LE(m.frames_executed, m.frames_expected);
      dropped += m.frames_dropped;
    }
    EXPECT_EQ(dropped, run.resilience.drops_early + run.resilience.drops_late);

    // One inference at a time per unit, and busy time is the span total.
    const std::vector<BusyInterval> timeline = run.timeline();
    std::vector<double> last_end(units, -1e300);
    std::vector<double> span_ms(units, 0.0);
    for (const auto& span : timeline) {
      const auto sa = static_cast<std::size_t>(span.sub_accel);
      ASSERT_LT(sa, units);
      EXPECT_GE(span.start_ms, last_end[sa])
          << "unit " << sa << " runs two inferences at " << span.start_ms;
      last_end[sa] = span.end_ms;
      span_ms[sa] += span.end_ms - span.start_ms;
    }
    ASSERT_EQ(run.telemetry.num_sub_accels(), units);
    for (std::size_t sa = 0; sa < units; ++sa) {
      const double busy = run.telemetry.sub_accel(sa).busy_ms;
      EXPECT_NEAR(busy, span_ms[sa], 1e-9 * std::max(busy, span_ms[sa]))
          << "unit " << sa;
      EXPECT_GE(run.utilization(sa), 0.0);
      EXPECT_LE(run.utilization(sa), 1.0);
    }

    // Without faults every span is an executed record, and only those.
    if (!faulted) {
      EXPECT_TRUE(run.aborted.empty());
      std::sort(executed.begin(), executed.end());
      ASSERT_EQ(timeline.size(), executed.size());
      for (std::size_t i = 0; i < timeline.size(); ++i) {
        const auto& [start, sa, task, frame, end] = executed[i];
        EXPECT_EQ(timeline[i].start_ms, start);
        EXPECT_EQ(timeline[i].sub_accel, sa);
        EXPECT_EQ(models::task_index(timeline[i].task), task);
        EXPECT_EQ(timeline[i].frame, frame);
        EXPECT_EQ(timeline[i].end_ms, end);
      }
    }

    const core::ScenarioScore score =
        core::score_scenario(run, core::ScoreConfig{});
    for (double v : {score.realtime, score.energy, score.accuracy, score.qoe,
                     score.overall}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    for (const auto& m : score.models) {
      for (double v :
           {m.rt, m.energy, m.accuracy, m.per_model, m.qoe, m.combined}) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }

  /// Bit-for-bit equality of two runs of one draw.
  static void expect_same_run(const ScenarioRunResult& a,
                              const ScenarioRunResult& b) {
    EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
    ASSERT_EQ(a.per_model.size(), b.per_model.size());
    for (std::size_t m = 0; m < a.per_model.size(); ++m) {
      const RecordStore& ra = a.per_model[m].records;
      const RecordStore& rb = b.per_model[m].records;
      EXPECT_EQ(a.per_model[m].frames_expected, b.per_model[m].frames_expected);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra.frame()[i], rb.frame()[i]);
        EXPECT_EQ(ra.treq_ms()[i], rb.treq_ms()[i]);
        EXPECT_EQ(ra.dropped()[i], rb.dropped()[i]);
        EXPECT_EQ(ra.sub_accel()[i], rb.sub_accel()[i]);
        EXPECT_EQ(ra.dvfs_level()[i], rb.dvfs_level()[i]);
        EXPECT_EQ(ra.dispatch_ms()[i], rb.dispatch_ms()[i]);
        EXPECT_EQ(ra.complete_ms()[i], rb.complete_ms()[i]);
        EXPECT_EQ(ra.energy_mj()[i], rb.energy_mj()[i]);
      }
    }
    ASSERT_EQ(a.aborted.size(), b.aborted.size());
    for (std::size_t i = 0; i < a.aborted.size(); ++i) {
      EXPECT_EQ(a.aborted[i].start_ms, b.aborted[i].start_ms);
      EXPECT_EQ(a.aborted[i].end_ms, b.aborted[i].end_ms);
    }
    for (std::size_t sa = 0; sa < a.telemetry.num_sub_accels(); ++sa) {
      EXPECT_EQ(a.telemetry.sub_accel(sa).busy_ms,
                b.telemetry.sub_accel(sa).busy_ms);
    }
    EXPECT_EQ(a.resilience.drops_late, b.resilience.drops_late);
    EXPECT_EQ(a.resilience.retries, b.resilience.retries);
  }

  std::mt19937_64 rng_;
  costmodel::AnalyticalCostModel cost_model_;
  std::map<std::tuple<char, std::int64_t, bool>, Rig> rigs_;
};

TEST(RunnerFuzz, SingleScenarioRunsKeepTheRunnerInvariants) {
  RunnerFuzz fuzz(/*seed=*/26);
  RunScratch scratch;
  for (int i = 0; i < 3000; ++i) {
    fuzz.one_run(scratch);
    if (HasFailure()) FAIL() << "draw " << i << " broke an invariant";
  }
}

}  // namespace
}  // namespace xrbench::runtime
