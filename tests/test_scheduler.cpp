#include "runtime/scheduler.h"

#include <gtest/gtest.h>

#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/policy_registry.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : system_(hw::make_accelerator('J', 8192)),  // WS + OS halves
        table_(system_, cost_model_) {}

  DispatchContext ctx() {
    DispatchContext c;
    c.now_ms = now_;
    c.pending = &pending_;
    c.idle_sub_accels = &idle_;
    c.costs = &table_;
    return c;
  }

  InferenceRequest req(TaskId task, std::int64_t frame, double treq,
                       double tdl) {
    InferenceRequest r;
    r.task = task;
    r.frame = frame;
    r.treq_ms = treq;
    r.tdl_ms = tdl;
    return r;
  }

  costmodel::AnalyticalCostModel cost_model_;
  hw::AcceleratorSystem system_;
  CostTable table_;
  std::vector<InferenceRequest> pending_;
  std::vector<std::size_t> idle_ = {0, 1};
  double now_ = 0.0;
};

TEST_F(SchedulerTest, AllPoliciesReturnNulloptWhenNothingPending) {
  const auto& registry = PolicyRegistry::instance();
  for (const auto& name : registry.scheduler_names()) {
    EXPECT_EQ(registry.make_scheduler(name)->pick(ctx()), std::nullopt)
        << name;
  }
}

TEST_F(SchedulerTest, AllPoliciesReturnNulloptWhenNoIdleAccel) {
  pending_.push_back(req(TaskId::kHT, 0, 0, 33));
  idle_.clear();
  const auto& registry = PolicyRegistry::instance();
  for (const auto& name : registry.scheduler_names()) {
    EXPECT_EQ(registry.make_scheduler(name)->pick(ctx()), std::nullopt)
        << name;
  }
}

TEST_F(SchedulerTest, LatencyGreedyPicksGloballyFastestPair) {
  pending_.push_back(req(TaskId::kPD, 0, 0, 33));  // slow everywhere
  pending_.push_back(req(TaskId::kKD, 0, 0, 333)); // fast everywhere
  LatencyGreedyScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(pending_[a->request_index].task, TaskId::kKD);
  // And on the sub-accelerator where KD is fastest.
  const auto best = table_.fastest_sub_accel(TaskId::kKD);
  EXPECT_EQ(a->sub_accel, best);
}

TEST_F(SchedulerTest, LatencyGreedyStarvesHeavyModels) {
  // The paper's Figure-6 effect: with light work always available, the
  // latency-greedy policy never picks PD first.
  pending_.push_back(req(TaskId::kPD, 0, 0, 33));
  pending_.push_back(req(TaskId::kHT, 0, 0, 22));
  pending_.push_back(req(TaskId::kDE, 0, 0, 33));
  LatencyGreedyScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_NE(pending_[a->request_index].task, TaskId::kPD);
}

TEST_F(SchedulerTest, EdfPicksEarliestDeadline) {
  pending_.push_back(req(TaskId::kKD, 0, 0, 333));
  pending_.push_back(req(TaskId::kPD, 0, 0, 12));  // earliest deadline
  pending_.push_back(req(TaskId::kHT, 0, 0, 22));
  EdfScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(pending_[a->request_index].task, TaskId::kPD);
}

TEST_F(SchedulerTest, EdfUsesFastestIdleAccelForThePick) {
  pending_.push_back(req(TaskId::kPD, 0, 0, 12));
  EdfScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->sub_accel, table_.fastest_sub_accel(TaskId::kPD));
}

TEST_F(SchedulerTest, RoundRobinCyclesTasks) {
  pending_.push_back(req(TaskId::kHT, 0, 0, 33));
  pending_.push_back(req(TaskId::kES, 0, 0, 16));
  RoundRobinScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  const TaskId first = pending_[a->request_index].task;
  // Remove the picked request and pick again: the other task must follow.
  pending_.erase(pending_.begin() +
                 static_cast<std::ptrdiff_t>(a->request_index));
  pending_.push_back(req(first, 1, 0, 50));  // re-add more of the first task
  const auto b = s.pick(ctx());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(pending_[b->request_index].task, first);
}

TEST_F(SchedulerTest, RoundRobinPicksOldestFrameWithinTask) {
  pending_.push_back(req(TaskId::kHT, 5, 0, 33));
  pending_.push_back(req(TaskId::kHT, 2, 0, 33));
  RoundRobinScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(pending_[a->request_index].frame, 2);
}

TEST_F(SchedulerTest, RoundRobinEqualFrameTieIsPendingOrderInvariant) {
  // Two same-task requests with equal frame indices but distinct deadlines:
  // the scheduler contract (scheduler.h) requires the decision to be
  // invariant under any permutation of the swap-remove-compacted pending
  // vector, so the tie must resolve on request attributes (earlier
  // deadline), not on vector position.
  const auto early = req(TaskId::kHT, 7, 1.0, 20.0);
  const auto late = req(TaskId::kHT, 7, 1.0, 30.0);

  pending_ = {late, early};
  RoundRobinScheduler s1;
  const auto a = s1.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(pending_[a->request_index].tdl_ms, 20.0);

  pending_ = {early, late};
  RoundRobinScheduler s2;
  const auto b = s2.pick(ctx());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(pending_[b->request_index].tdl_ms, 20.0);
}

TEST_F(SchedulerTest, SlackAwarePrefersFeasibleRequests) {
  now_ = 0.0;
  // PD cannot meet a 5 ms deadline anywhere; HT can meet 30 ms easily.
  pending_.push_back(req(TaskId::kPD, 0, 0, 5));
  pending_.push_back(req(TaskId::kHT, 0, 0, 30));
  SlackAwareScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(pending_[a->request_index].task, TaskId::kHT);
}

TEST_F(SchedulerTest, SlackAwareFallsBackToEdfWhenAllDoomed) {
  pending_.push_back(req(TaskId::kPD, 0, 0, 0.5));
  pending_.push_back(req(TaskId::kSS, 0, 0, 0.2));
  SlackAwareScheduler s;
  const auto a = s.pick(ctx());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(pending_[a->request_index].task, TaskId::kSS);  // earliest tdl
}

/// Property: every registered policy returns valid indices for arbitrary
/// queue states, with a telemetry history (a busy unit and an aborted one)
/// for the load- and fault-aware placements to read.
class SchedulerValidity : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerValidity, AlwaysReturnsValidAssignment) {
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::make_accelerator('M', 8192);
  const CostTable table(sys, cm);
  auto sched = PolicyRegistry::instance().make_scheduler(GetParam());
  std::vector<InferenceRequest> pending;
  for (int i = 0; i < 20; ++i) {
    InferenceRequest r;
    r.task = models::all_tasks()[static_cast<std::size_t>(i) %
                                 models::kNumTasks];
    r.frame = i;
    r.treq_ms = i * 3.0;
    r.tdl_ms = i * 3.0 + 16.0;
    pending.push_back(r);
  }
  const std::vector<std::size_t> idle = {1, 3};
  Telemetry telemetry;
  telemetry.reset(sys.sub_accels.size());
  telemetry.on_dispatch(1, pending[0], 0, 0.0, pending.size());
  telemetry.on_retire(1, pending[0], 0, 8.0, 1.0, 0.1);
  telemetry.on_dispatch(3, pending[1], 0, 0.0, pending.size());
  telemetry.on_abort(3, 5.0, 0.5, 0.1);
  DispatchContext ctx;
  ctx.now_ms = 10.0;
  ctx.pending = &pending;
  ctx.idle_sub_accels = &idle;
  ctx.costs = &table;
  ctx.telemetry = &telemetry;
  ctx.system = &sys;
  for (int round = 0; round < 10 && !pending.empty(); ++round) {
    const auto a = sched->pick(ctx);
    ASSERT_TRUE(a.has_value());
    ASSERT_LT(a->request_index, pending.size());
    EXPECT_TRUE(a->sub_accel == 1 || a->sub_accel == 3);
    pending.erase(pending.begin() +
                  static_cast<std::ptrdiff_t>(a->request_index));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SchedulerValidity,
    ::testing::ValuesIn(PolicyRegistry::instance().scheduler_names()),
    [](const auto& info) {
      std::string n = info.param;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace xrbench::runtime
