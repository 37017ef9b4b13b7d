#include "runtime/scenario_runner.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_probe.h"
#include "sim/simulator.h"

#include "core/sweep.h"
#include "hw/accelerator.h"
#include "outcome_checks.h"
#include "runtime/policy_registry.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {
namespace {

/// Exact-equality comparison of two runs: scratch reuse must change where
/// bytes live, never what they hold.
void expect_identical_runs(const ScenarioRunResult& a,
                           const ScenarioRunResult& b) {
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
  ASSERT_EQ(a.telemetry.num_sub_accels(), b.telemetry.num_sub_accels());
  for (std::size_t sa = 0; sa < a.telemetry.num_sub_accels(); ++sa) {
    EXPECT_EQ(a.telemetry.sub_accel(sa).busy_ms,
              b.telemetry.sub_accel(sa).busy_ms);
  }
  const auto ta = a.timeline();
  const auto tb = b.timeline();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].start_ms, tb[i].start_ms);
    EXPECT_EQ(ta[i].end_ms, tb[i].end_ms);
    EXPECT_EQ(ta[i].sub_accel, tb[i].sub_accel);
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const auto& ra = a.per_model[m].records;
    const auto& rb = b.per_model[m].records;
    EXPECT_EQ(a.per_model[m].frames_executed, b.per_model[m].frames_executed);
    EXPECT_EQ(a.per_model[m].frames_dropped, b.per_model[m].frames_dropped);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra.frame()[r], rb.frame()[r]);
      EXPECT_EQ(ra.treq_ms()[r], rb.treq_ms()[r]);
      EXPECT_EQ(ra.dropped()[r], rb.dropped()[r]);
      EXPECT_EQ(ra.dispatch_ms()[r], rb.dispatch_ms()[r]);
      EXPECT_EQ(ra.complete_ms()[r], rb.complete_ms()[r]);
      EXPECT_EQ(ra.energy_mj()[r], rb.energy_mj()[r]);
    }
  }
}

class RunScratchTest : public ::testing::Test {
 protected:
  RunScratchTest()
      : system_(hw::with_default_dvfs(hw::make_accelerator('J', 4096))),
        table_(system_, cost_model_),
        runner_(system_, table_) {}

  ScenarioRunResult run_once(std::uint64_t seed, RunScratch* scratch,
                             const FaultSpec& faults = {}) {
    auto scheduler =
        PolicyRegistry::instance().make_scheduler("latency-greedy");
    auto governor = PolicyRegistry::instance().make_governor("ondemand");
    scheduler->reset();
    governor->reset();
    RunConfig cfg;
    cfg.seed = seed;
    cfg.faults = faults;
    return runner_.run(workload::scenario_by_name("AR Gaming"), *scheduler,
                       cfg, governor.get(), scratch);
  }

  costmodel::AnalyticalCostModel cost_model_;
  hw::AcceleratorSystem system_;
  CostTable table_;
  ScenarioRunner runner_;
};

TEST_F(RunScratchTest, ScratchRunsAreBitIdenticalToFreshRuns) {
  // Fault-free, then with retries, outage kills and checkpointed resumes,
  // whose aborted spans and fault counters live in the scratch too.
  FaultSpec faulted;
  faulted.transient_rate = 0.05;
  faulted.max_retries = 2;
  faulted.outage_rate_per_s = 3.0;
  faulted.outage_ms = 20.0;
  faulted.checkpoint = true;
  for (const FaultSpec& faults : {FaultSpec{}, faulted}) {
    const auto fresh = run_once(42, nullptr, faults);
    EXPECT_EQ(fresh.resilience.outage_kills > 0, faults.enabled());
    RunScratch scratch;
    // First run with the scratch (cold arenas), then a decoy run with a
    // DIFFERENT seed to dirty every buffer, then the seed-42 run again off
    // the dirty arenas.
    auto first = run_once(42, &scratch, faults);
    expect_identical_runs(fresh, first);
    scratch.recycle(std::move(first));
    auto decoy = run_once(1234, &scratch, faults);
    scratch.recycle(std::move(decoy));
    const auto reused = run_once(42, &scratch, faults);
    expect_identical_runs(fresh, reused);
    EXPECT_EQ(fresh.aborted.size(), reused.aborted.size());
    test::expect_identical(fresh.resilience, reused.resilience,
                           faults.enabled() ? "faulted" : "fault-free");
  }
}

TEST_F(RunScratchTest, RecycleRetainsRecordCapacity) {
  RunScratch scratch;
  EXPECT_EQ(scratch.pooled_stores(), 0u);
  auto run = run_once(42, &scratch);
  const std::size_t num_models = run.per_model.size();
  scratch.recycle(std::move(run));
  // Every per-model store went back to the pool with its arena intact.
  EXPECT_EQ(scratch.pooled_stores(), num_models);
  const std::size_t capacity = scratch.pooled_record_capacity();
  EXPECT_GT(capacity, 0u);
  // The next run consumes the pooled stores and hands them back with the
  // same capacity: steady state allocates nothing new.
  auto again = run_once(42, &scratch);
  EXPECT_EQ(scratch.pooled_stores(), 0u);
  scratch.recycle(std::move(again));
  EXPECT_EQ(scratch.pooled_stores(), num_models);
  EXPECT_EQ(scratch.pooled_record_capacity(), capacity);
}

TEST_F(RunScratchTest, WarmRunAllocationsDoNotGrowWithRunLength) {
  // A warm scratch serves every buffer that grows with the run (records,
  // pending requests, arrivals, events). What a warm run still allocates is
  // the fixed set RunScratch documents: the result's per-model vector, its
  // telemetry snapshot (one vector plus a level history per
  // sub-accelerator), one fan-out list per upstream model (VR Gaming's ES
  // feeds GE) and one sort permutation per model's records.
  const auto& scenario = workload::scenario_by_name("VR Gaming");
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  RunScratch scratch;
  const auto warm_run = [&](double duration_ms) {
    RunConfig cfg;
    cfg.duration_ms = duration_ms;
    scheduler->reset();
    const std::uint64_t before = g_alloc_count.load();
    auto run = runner_.run(scenario, *scheduler, cfg, nullptr, &scratch);
    const std::uint64_t allocs = g_alloc_count.load() - before;
    scratch.recycle(std::move(run));
    return allocs;
  };
  warm_run(4000.0);  // sizes every arena for the longest run below
  const std::uint64_t short_run = warm_run(500.0);
  const std::uint64_t long_run = warm_run(4000.0);
  EXPECT_EQ(short_run, long_run);
  const std::size_t documented =
      1 + (1 + system_.sub_accels.size()) + 1 + scenario.models.size();
  EXPECT_LE(long_run, documented);
}

TEST_F(RunScratchTest, ProgramRunsReuseTheScratchAcrossPhases) {
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  auto governor = PolicyRegistry::instance().make_governor("ondemand");
  RunConfig cfg;
  cfg.seed = 7;
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  scheduler->reset();
  governor->reset();
  const auto fresh =
      runner_.run_program(program, *scheduler, cfg, governor.get(), nullptr);
  RunScratch scratch;
  scheduler->reset();
  governor->reset();
  const auto reused =
      runner_.run_program(program, *scheduler, cfg, governor.get(), &scratch);
  expect_identical_runs(fresh, reused);
  // The last phase's arenas were recycled into the scratch.
  EXPECT_GT(scratch.pooled_stores(), 0u);
}

TEST_F(RunScratchTest, ProgramTrialLoopPoolPlateausAtHighWaterMark) {
  // A trial loop over a program recycles the merged session result; the
  // merged stores must come back OUT of the pool on the next trial, or the
  // pool grows by one result per trial forever.
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  RunScratch scratch;
  std::size_t stores_after_warmup = 0;
  std::size_t capacity_after_warmup = 0;
  // Fixed seed: per-trial record demand is identical, so the only possible
  // growth source is the pooling machinery itself. (Across different seeds
  // capacities may still ratchet to each slot's demand high-water mark —
  // bounded by the largest single-run demand, never by trial count.)
  for (int trial = 0; trial < 8; ++trial) {
    scheduler->reset();
    RunConfig cfg;
    cfg.seed = 42;
    auto run =
        runner_.run_program(program, *scheduler, cfg, nullptr, &scratch);
    scratch.recycle(std::move(run));
    // Stores rotate through slots as phases and the session merge
    // interleave their takes, so per-store capacities ratchet toward the
    // largest slot demand for a few rounds before the pool reaches its
    // fixed point (measured: flat from trial 4 through 29).
    if (trial == 4) {
      stores_after_warmup = scratch.pooled_stores();
      capacity_after_warmup = scratch.pooled_record_capacity();
    }
  }
  EXPECT_EQ(scratch.pooled_stores(), stores_after_warmup);
  EXPECT_EQ(scratch.pooled_record_capacity(), capacity_after_warmup);
}

TEST(SweepScratch, RepeatedSweepsOnOneEngineAreIdentical) {
  // The engine's per-worker arenas persist across calls; a second sweep on
  // dirty arenas must reproduce the first bit-for-bit, at any worker count.
  std::vector<core::ScenarioSweepPoint> points;
  core::HarnessOptions opt;
  opt.governor = "ondemand";
  opt.dynamic_trials = 4;
  opt.run.duration_ms = 500.0;
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  points.push_back({"burst", system, opt,
                    workload::scenario_by_name("Bursty Notification")});
  for (std::size_t workers : {0u, 4u}) {
    core::SweepEngine engine(workers);
    const auto a = engine.run_scenario_points(points);
    const auto b = engine.run_scenario_points(points);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    test::expect_identical(b[0], a[0], std::to_string(workers) + " workers");
  }
}

TEST(SimulatorReuse, ResetRewindsClockAndKeepsCapacity) {
  xrbench::sim::Simulator s;
  int fired = 0;
  s.schedule_at(5.0, [&] { ++fired; });
  s.schedule_at(9.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 9.0);
  const std::size_t slots = s.pool_slots();
  s.reset();
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pool_slots(), slots);  // arena retained
  // Events before the old end time are legal again after the rewind.
  double when = -1.0;
  s.schedule_at(2.0, [&] { when = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(when, 2.0);
}

TEST(SimulatorReuse, ResetWithPendingEventsThrows) {
  xrbench::sim::Simulator s;
  s.schedule_at(1.0, [] {});
  EXPECT_THROW(s.reset(), std::logic_error);
}

}  // namespace
}  // namespace xrbench::runtime
