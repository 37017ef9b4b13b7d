#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/sweep.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "runtime/fault_plan.h"
#include "runtime/scenario_runner.h"
#include "runtime/scheduler.h"
#include "outcome_checks.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {
namespace {

/// Outage-heavy profile with layer-granular checkpointing: transient faults
/// off so every abort is an outage kill (the event checkpoints answer).
FaultSpec checkpoint_spec() {
  FaultSpec f;
  f.outage_rate_per_s = 3.0;
  f.outage_ms = 30.0;
  f.max_retries = 3;
  f.retry_backoff_ms = 1.0;
  f.checkpoint = true;
  f.checkpoint_overhead_ms = 0.0;
  return f;
}

/// Bit-identical deep comparison (EXPECT_EQ on doubles is exact).
void expect_identical(const ScenarioRunResult& a, const ScenarioRunResult& b) {
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
  const auto ta = a.timeline();
  const auto tb = b.timeline();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].sub_accel, tb[i].sub_accel);
    EXPECT_EQ(ta[i].frame, tb[i].frame);
    EXPECT_EQ(ta[i].start_ms, tb[i].start_ms);
    EXPECT_EQ(ta[i].end_ms, tb[i].end_ms);
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const RecordStore& ra = a.per_model[m].records;
    const RecordStore& rb = b.per_model[m].records;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra.frame()[i], rb.frame()[i]);
      EXPECT_EQ(ra.dropped()[i], rb.dropped()[i]);
      EXPECT_EQ(ra.sub_accel()[i], rb.sub_accel()[i]);
      EXPECT_EQ(ra.dvfs_level()[i], rb.dvfs_level()[i]);
      EXPECT_EQ(ra.dispatch_ms()[i], rb.dispatch_ms()[i]);
      EXPECT_EQ(ra.complete_ms()[i], rb.complete_ms()[i]);
      EXPECT_EQ(ra.energy_mj()[i], rb.energy_mj()[i]);
      EXPECT_EQ(ra.resumed()[i], rb.resumed()[i]);
    }
  }
  EXPECT_EQ(a.resilience.outage_kills, b.resilience.outage_kills);
  EXPECT_EQ(a.resilience.failovers, b.resilience.failovers);
  EXPECT_EQ(a.resilience.resumes, b.resilience.resumes);
  EXPECT_EQ(a.resilience.checkpoint_saved_ms, b.resilience.checkpoint_saved_ms);
}

class CheckpointRunnerTest : public ::testing::Test {
 protected:
  ScenarioRunResult run(const hw::AcceleratorSystem& sys,
                        const FaultSpec& faults, std::uint64_t seed = 42) {
    const CostTable table(sys, cost_model_);
    const ScenarioRunner runner(sys, table);
    LatencyGreedyScheduler sched;
    RunConfig cfg;
    cfg.seed = seed;
    cfg.faults = faults;
    return runner.run(workload::scenario_by_name("AR Gaming"), sched, cfg);
  }

  costmodel::AnalyticalCostModel cost_model_;
};

// ---- Disabled path --------------------------------------------------------

TEST_F(CheckpointRunnerTest, DisabledCheckpointLeavesNoTrace) {
  // checkpoint = false under heavy outages: the pre-checkpoint semantics
  // (full restart from layer 0) hold exactly — no resumes, no saved time,
  // no record tagged resumed.
  auto spec = checkpoint_spec();
  spec.checkpoint = false;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto result = run(sys, spec);
  EXPECT_GT(result.resilience.outage_kills, 0);
  EXPECT_EQ(result.resilience.resumes, 0);
  EXPECT_EQ(result.resilience.checkpoint_saved_ms, 0.0);
  for (const auto& stats : result.per_model) {
    for (std::size_t i = 0; i < stats.records.size(); ++i) {
      EXPECT_EQ(stats.records.resumed()[i], 0);
    }
  }
}

TEST_F(CheckpointRunnerTest, CheckpointIsFreeWithoutKills) {
  // With outages off nothing is ever killed mid-flight, so enabling
  // checkpointing must be literally free: bit-identical to the same run
  // with it disabled.
  FaultSpec transient_only;
  transient_only.transient_rate = 0.1;
  transient_only.max_retries = 2;
  transient_only.retry_backoff_ms = 1.0;
  auto with_ckpt = transient_only;
  with_ckpt.checkpoint = true;
  with_ckpt.checkpoint_overhead_ms = 5.0;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto a = run(sys, transient_only);
  const auto b = run(sys, with_ckpt);
  expect_identical(a, b);
  EXPECT_EQ(b.resilience.resumes, 0);
}

// ---- Saved-ms accounting --------------------------------------------------

TEST_F(CheckpointRunnerTest, SavedMsEqualsFirstAttemptCompletedLayerCost) {
  // No governor and no throttles: every dispatch runs at its unit's nominal
  // level, so the runner's saved-ms accounting can be reconstructed exactly
  // from the timeline and the layer-prefix tables — each resumed dispatch
  // saves precisely the latency prefix of the layers its killed
  // predecessors completed. Design M gives killed work healthy units to
  // fail over to (a single-unit system stays down past the deadline, so
  // kills there never resume).
  const auto spec = checkpoint_spec();
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 4096));
  const costmodel::AnalyticalCostModel model;
  const CostTable table(sys, model);
  const auto result = run(sys, spec);
  ASSERT_GT(result.resilience.outage_kills, 0);
  ASSERT_GT(result.resilience.resumes, 0);

  RunConfig cfg;  // defaults match run()
  const FaultPlan plan(spec, cfg.seed, sys.num_sub_accels(), cfg.duration_ms,
                       sys.fault_domains);

  auto timeline = result.timeline();
  std::sort(timeline.begin(), timeline.end(),
            [](const BusyInterval& a, const BusyInterval& b) {
              return a.start_ms < b.start_ms;
            });
  // Replay the kill/resume state machine: (task, frame) -> layers done.
  std::map<std::pair<std::size_t, std::int64_t>, std::size_t> done_layers;
  double expected_saved = 0.0;
  std::int64_t expected_resumes = 0;
  for (const auto& bi : timeline) {
    const auto sa = static_cast<std::size_t>(bi.sub_accel);
    const std::size_t level = table.nominal_level(sa);
    const auto key = std::make_pair(models::task_index(bi.task), bi.frame);
    std::size_t from = 0;
    if (auto it = done_layers.find(key); it != done_layers.end()) {
      from = it->second;
    }
    if (from > 0) {
      // The runner books the saved time at the DISPATCHING unit's prefix.
      expected_saved += table.layer_latency_prefix_ms(bi.task, sa, level, from);
      ++expected_resumes;
    }
    bool killed = false;
    for (const auto& w : plan.outages(sa)) {
      if (bi.end_ms == w.start_ms) {
        killed = true;
        break;
      }
    }
    if (killed) {
      done_layers[key] = table.completed_layers(bi.task, sa, level, from,
                                                bi.end_ms - bi.start_ms);
    } else {
      done_layers.erase(key);
    }
  }
  EXPECT_EQ(result.resilience.resumes, expected_resumes);
  EXPECT_EQ(result.resilience.checkpoint_saved_ms, expected_saved);
}

TEST_F(CheckpointRunnerTest, ResumedRecordsNeverExceedResumeCount) {
  // Every executed record tagged `resumed` came from a resume dispatch, but
  // a resumed attempt can be killed again before retiring — so the tagged
  // record count is a positive lower bound on the resume counter.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 4096));
  const auto result = run(sys, checkpoint_spec());
  std::int64_t tagged = 0;
  for (const auto& stats : result.per_model) {
    for (std::size_t i = 0; i < stats.records.size(); ++i) {
      if (stats.records.resumed()[i] != 0) ++tagged;
    }
  }
  ASSERT_GT(result.resilience.resumes, 0);
  EXPECT_GT(tagged, 0);
  EXPECT_LE(tagged, result.resilience.resumes);
}

// ---- Sweep-level byte-identity --------------------------------------------

TEST(CheckpointSweep, ByteIdenticalAcrossWorkerCounts) {
  // The full recovery stack — correlated domains, checkpointed resume and
  // fault-aware placement — on 1/2/4/8-worker sweeps: the checkpoint state
  // lives in the deterministic requeue path and every scheduler input is a
  // pure function of the context, so worker count cannot perturb a byte of
  // the scores or of the final trial's summary.
  auto system = hw::with_default_dvfs(hw::make_accelerator('M', 4096));
  system.fault_domains = {{0, 1}, {2, 3}};
  core::ProgramSweepPoint point;
  point.system = system;
  point.program = workload::program_by_name("Bursty Notification Over Base");
  point.options.scheduler = "fault-aware";
  point.options.governor = "deadline-aware";
  point.options.admission = "drop-early";
  point.options.dynamic_trials = 3;
  point.options.run.faults = checkpoint_spec();
  point.options.run.faults.transient_rate = 0.05;
  point.options.run.faults.checkpoint_overhead_ms = 0.5;

  const std::vector<core::ProgramSweepPoint> points = {point};
  core::SweepEngine serial(1);
  const auto baseline = serial.run_program_points(points);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_TRUE(baseline.front().last.resilience.enabled);
  EXPECT_GT(baseline.front().last.resilience.resumes, 0);
  for (std::size_t workers : {2u, 4u, 8u}) {
    core::SweepEngine engine(workers);
    const auto got = engine.run_program_points(points);
    ASSERT_EQ(got.size(), 1u);
    test::expect_identical(got.front(), baseline.front(),
                           std::to_string(workers) + " workers");
  }
}

}  // namespace
}  // namespace xrbench::runtime
