#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace xrbench::sim {
namespace {

TEST(Simulator, EmptyQueueRuns) {
  Simulator s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(s.now(), 0.0);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30.0, [&] { order.push_back(3); });
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.schedule_at(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30.0);
}

TEST(Simulator, FifoTieBreakAtEqualTime) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5.0, [&] { order.push_back(1); });
  s.schedule_at(5.0, [&] { order.push_back(2); });
  s.schedule_at(5.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_after(5.0, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimestampsClampToNow) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_at(3.0, [&] { fired_at = s.now(); });  // in the past
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_after(-5.0, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 0.0);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.run(), 0u);
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator s;
  const EventId id = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelUnknownIdFails) {
  Simulator s;
  EXPECT_FALSE(s.cancel(0));
  EXPECT_FALSE(s.cancel(9999));
}

TEST(Simulator, PendingCountTracksCancel) {
  Simulator s;
  const EventId a = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, RunBeforeFiresStrictlyEarlierEventsInTimeFifoOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(1.0, [&] {
    order.push_back(1);
    s.schedule_at(2.5, [&] { order.push_back(4); });  // before t: fires
    s.schedule_at(3.0, [&] { order.push_back(9); });  // at t: stays
  });
  s.schedule_at(2.0, [&] { order.push_back(3); });  // FIFO after the first 2.0
  s.schedule_at(3.0, [&] { order.push_back(9); });  // at t: stays
  EXPECT_EQ(s.run_before(3.0), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(s.pending_events(), 2u);
}

TEST(Simulator, RunBeforeKeepsBoundaryEventsPendingInFifoOrder) {
  // What the caller handles right after run_before(t) precedes every event
  // already pending at t; those then fire in scheduling order, after it.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5.0, [&] { order.push_back(1); });
  s.schedule_at(5.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.run_before(5.0), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending_events(), 2u);
  order.push_back(0);  // the caller's own work at t
  s.schedule_after(0.0, [&] { order.push_back(3); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunBeforeNeverMovesTheClockBackwards) {
  Simulator s;
  s.schedule_at(10.0, [] {});
  s.run();
  EXPECT_EQ(s.run_before(4.0), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
  EXPECT_EQ(s.run_before(12.0), 0u);  // empty queue: the clock still moves
  EXPECT_DOUBLE_EQ(s.now(), 12.0);
}

TEST(Simulator, RunBeforeSkipsCancelledEvents) {
  Simulator s;
  std::vector<int> order;
  const EventId first = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  const EventId third = s.schedule_at(2.5, [&] { order.push_back(3); });
  const EventId boundary = s.schedule_at(3.0, [&] { order.push_back(4); });
  s.schedule_at(3.0, [&] { order.push_back(5); });
  EXPECT_TRUE(s.cancel(first));  // a cancelled entry on top of the queue
  EXPECT_TRUE(s.cancel(third));
  EXPECT_TRUE(s.cancel(boundary));
  EXPECT_EQ(s.run_before(3.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 5}));
}

/// Logs every event it fires; each fired event schedules two children
/// (two levels deep) whose delays derive from the child's id, so two
/// drivers that fire the same events create the same children.
struct FiringLog {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, double>> fired;

  void handle(std::uint64_t id, int depth) {
    fired.emplace_back(id, sim.now());
    if (depth == 2) return;
    for (std::uint64_t c = 1; c <= 2; ++c) {
      const std::uint64_t child = id * 4 + c;
      const double delay = 0.5 * static_cast<double>(child % 5);  // 0..2 ms
      sim.schedule_after(delay,
                         [this, child, depth] { handle(child, depth + 1); });
    }
  }
};

TEST(Simulator, RunBeforeReplaysArrivalsScheduledFirst) {
  // Arrivals known up front, fed from a sorted array through run_before,
  // fire every event in exactly the order a queue gives when each arrival
  // is scheduled first, before the events pre-scheduled next to them.
  // The 0.5 ms grid makes arrivals, pre-scheduled events and children tie
  // often; negative times clamp to the run start in both drivers.
  struct Arrival {
    double when;
    std::uint64_t id;
  };
  std::vector<Arrival> arrivals;
  for (std::uint64_t i = 0; i < 40; ++i) {
    arrivals.push_back({0.5 * static_cast<double>((i * 37) % 23) - 1.0,
                        100 + i});
  }
  const double prescheduled[] = {0.0, 2.5, 4.0, 4.0, 7.5};

  FiringLog queued;
  for (const auto& a : arrivals) {
    queued.sim.schedule_at(a.when, [&queued, id = a.id] {
      queued.handle(id, 0);
    });
  }
  for (std::size_t k = 0; k < std::size(prescheduled); ++k) {
    queued.sim.schedule_at(prescheduled[k],
                           [&queued, k] { queued.handle(10 + k, 1); });
  }
  queued.sim.run();

  FiringLog streamed;
  for (std::size_t k = 0; k < std::size(prescheduled); ++k) {
    streamed.sim.schedule_at(prescheduled[k],
                             [&streamed, k] { streamed.handle(10 + k, 1); });
  }
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    order.emplace_back(std::max(arrivals[i].when, 0.0), i);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [when, i] : order) {
    streamed.sim.run_before(when);
    streamed.handle(arrivals[i].id, 0);
  }
  streamed.sim.run();

  EXPECT_GT(queued.fired.size(), arrivals.size() * 5);
  EXPECT_EQ(queued.fired, streamed.fired);
}

TEST(Simulator, StepFiresOneEvent) {
  Simulator s;
  int count = 0;
  s.schedule_at(1.0, [&] { ++count; });
  s.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CascadedEventChains) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(1.0, chain);
  };
  s.schedule_at(0.0, chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(s.now(), 99.0);
}

TEST(Simulator, FiredEventsCounter) {
  Simulator s;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.fired_events(), 10u);
}

TEST(Simulator, CancelAfterPoolSlotReuseFails) {
  // Regression for the pooled event arena: after event `a` fires, its pool
  // slot is recycled by event `b`. A stale handle to `a` must NOT cancel
  // `b` (EventIds are generation-tagged).
  Simulator s;
  bool b_fired = false;
  const EventId a = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.step());             // `a` fires, slot returns to free list
  s.schedule_at(2.0, [&] { b_fired = true; });  // reuses a's slot
  EXPECT_FALSE(s.cancel(a));         // stale id must be rejected
  s.run();
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, CancelAfterCancelledSlotReuseFails) {
  // Same regression via the cancel path: cancelling `a` frees its slot
  // immediately; the recycled slot's new tenant must be unaffected by a
  // second cancel with the old id.
  Simulator s;
  bool b_fired = false;
  const EventId a = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.cancel(a));
  const EventId b = s.schedule_at(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));
  s.run();
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, FifoTieBreakSurvivesPoolReuse) {
  // Equal-timestamp FIFO order must hold even when the events' pool slots
  // were recycled in a different order than they were first allocated.
  Simulator s;
  std::vector<int> order;
  // Round 1: allocate three slots, fire them (slots go to the free list in
  // fire order, so the free list is LIFO relative to allocation).
  for (int i = 0; i < 3; ++i) s.schedule_at(1.0, [] {});
  s.run();
  // Round 2: equal timestamps on recycled slots must still fire FIFO.
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.schedule_at(10.0, [&] { order.push_back(2); });
  s.schedule_at(10.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, PoolHighWaterMarkIsReused) {
  // Steady-state scheduling must recycle slots instead of growing the pool:
  // repeated schedule/fire cycles keep the arena at its high-water mark.
  Simulator s;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) s.schedule_after(1.0, [] {});
    s.run();
  }
  EXPECT_EQ(s.pool_slots(), 4u);
}

TEST(Simulator, CancelDuringCallbackOfSameEventFails) {
  // Once an event fires its id is dead, even from inside its own callback,
  // and the failed cancel leaves the pending count alone.
  Simulator s;
  EventId id = 0;
  bool cancelled = true;
  std::size_t pending_before = 0;
  std::size_t pending_after = 0;
  bool later_fired = false;
  id = s.schedule_at(1.0, [&] {
    pending_before = s.pending_events();
    cancelled = s.cancel(id);
    pending_after = s.pending_events();
  });
  s.schedule_at(2.0, [&] { later_fired = true; });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(pending_before, 1u);
  EXPECT_EQ(pending_after, 1u);
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, CallbackSchedulingPastOneChunkKeepsItsCaptures) {
  // Callables fire in the pool node they were built in. A callback that
  // schedules far more events than one chunk of nodes holds grows the pool
  // while it runs; its own captures must stay where they are and readable,
  // and every event it scheduled fires in (time, FIFO) order.
  constexpr int kEvents = 1000;
  Simulator s;
  std::vector<std::pair<double, int>> fired;
  std::array<int, 16> seen{};
  std::array<int, 16> tag{};
  for (std::size_t i = 0; i < tag.size(); ++i) {
    tag[i] = static_cast<int>(i * 31 + 7);
  }
  s.schedule_at(1.0, [&s, &fired, &seen, tag] {
    for (int i = 0; i < kEvents; ++i) {
      const double when = 2.0 + static_cast<double>((i * 13) % 7);  // ties
      s.schedule_at(when, [&s, &fired, i] { fired.emplace_back(s.now(), i); });
    }
    seen = tag;  // read after the pool grew under this callback
  });
  EXPECT_EQ(s.run(), static_cast<std::size_t>(kEvents) + 1);
  EXPECT_GE(s.pool_slots(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(seen, tag);
  std::vector<std::pair<double, int>> expected;
  for (int i = 0; i < kEvents; ++i) {
    expected.emplace_back(2.0 + static_cast<double>((i * 13) % 7), i);
  }
  std::sort(expected.begin(), expected.end());  // FIFO: i ascends per time
  EXPECT_EQ(fired, expected);
}

TEST(Simulator, ThrowingCallbackReleasesItsSlot) {
  // An exception from a callback leaves run(); the callable is destroyed,
  // its slot goes back to the free list, and the queue carries on.
  Simulator s;
  auto token = std::make_shared<int>(0);
  bool second = false;
  bool third = false;
  s.schedule_at(1.0, [token] { throw std::runtime_error("callback"); });
  s.schedule_at(2.0, [&] { second = true; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);  // the throwing callable is gone
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.pool_slots(), 2u);
  s.schedule_at(3.0, [&] { third = true; });
  EXPECT_EQ(s.pool_slots(), 2u);  // the thrower's slot was reused
  EXPECT_EQ(s.run(), 2u);
  EXPECT_TRUE(second);
  EXPECT_TRUE(third);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

/// Counts its moves; copies are not counted.
struct MoveCounter {
  int* moves;
  int* calls;
  MoveCounter(int* m, int* c) : moves(m), calls(c) {}
  MoveCounter(const MoveCounter&) = default;
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves), calls(o.calls) {
    ++*moves;
  }
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  void operator()() { ++*calls; }
};

TEST(Simulator, CallableIsMovedOnlyIntoItsNode) {
  // A scheduled callable is moved at most once, into its pool node, and
  // never again while it waits in the queue, while the pool grows around it
  // or when it fires.
  Simulator s;
  int moves = 0;
  int calls = 0;
  s.schedule_at(50.0, MoveCounter(&moves, &calls));
  EXPECT_LE(moves, 1);
  const int scheduled_moves = moves;
  s.schedule_after(40.0, MoveCounter(&moves, &calls));
  EXPECT_LE(moves - scheduled_moves, 1);
  const int queued_moves = moves;
  for (int i = 0; i < 500; ++i) {  // grow the pool and reorder the heap
    s.schedule_at(static_cast<double>(i % 90), [] {});
  }
  EXPECT_EQ(s.run(), 502u);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(moves, queued_moves);
}

/// Property: N randomly-ordered timestamps always fire sorted.
class SimulatorOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderProperty, AlwaysSorted) {
  Simulator s;
  std::vector<double> fired;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  s.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 17, 100, 1000));

}  // namespace
}  // namespace xrbench::sim
