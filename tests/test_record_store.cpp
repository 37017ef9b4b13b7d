#include "runtime/record_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/harness.h"
#include "hw/accelerator.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

TEST(RecordStore, RoundTripsThroughBothAppendPaths) {
  RecordStore store;
  EXPECT_TRUE(store.empty());

  store.append_executed(TaskId::kHT, /*frame=*/3, /*treq_ms=*/1.0,
                        /*tdl_ms=*/10.0, /*sub_accel=*/1, /*dvfs_level=*/2,
                        /*dispatch_ms=*/2.0, /*complete_ms=*/4.0,
                        /*energy_mj=*/0.5);
  store.append_dropped(TaskId::kHT, 4, 5.0, 12.0);

  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.task()[0], TaskId::kHT);
  EXPECT_EQ(store.frame()[0], 3);
  EXPECT_EQ(store.dropped()[0], 0);
  EXPECT_EQ(store.sub_accel()[0], 1);
  EXPECT_EQ(store.dvfs_level()[0], 2);
  EXPECT_EQ(store.dispatch_ms()[0], 2.0);
  EXPECT_EQ(store.complete_ms()[0], 4.0);
  EXPECT_EQ(store.energy_mj()[0], 0.5);
  EXPECT_EQ(store.resumed()[0], 0);
  EXPECT_EQ(store.latency_ms(0), 3.0);  // complete - treq
  EXPECT_EQ(store.slack_ms(0), 9.0);    // tdl - treq
  EXPECT_FALSE(store.missed_deadline(0));

  // A dropped record is canonical: no unit, no level, zeroed execution.
  EXPECT_EQ(store.frame()[1], 4);
  EXPECT_EQ(store.treq_ms()[1], 5.0);
  EXPECT_EQ(store.tdl_ms()[1], 12.0);
  EXPECT_EQ(store.dropped()[1], 1);
  EXPECT_EQ(store.sub_accel()[1], -1);
  EXPECT_EQ(store.dvfs_level()[1], -1);
  EXPECT_EQ(store.dispatch_ms()[1], 0.0);
  EXPECT_EQ(store.complete_ms()[1], 0.0);
  EXPECT_EQ(store.energy_mj()[1], 0.0);
  EXPECT_FALSE(store.missed_deadline(1));  // dropped never "missed"
}

TEST(RecordStore, SortCanonicalMatchesStdSort) {
  // The store's in-place permutation sort against std::sort over the same
  // keys: mixed frames, repeated frames, dropped-vs-executed ties.
  RecordStore store;
  store.append_dropped(TaskId::kOD, 2, 3.0, 9.0);
  store.append_executed(TaskId::kOD, 2, 3.0, 9.0, 0, 0, 4.0, 6.0, 0.3);
  store.append_executed(TaskId::kOD, 0, 1.0, 5.0, 0, 0, 1.5, 2.0, 0.2);
  store.append_dropped(TaskId::kOD, 0, 0.5, 5.0);
  store.append_executed(TaskId::kOD, 1, 2.0, 7.0, 0, 0, 2.5, 3.0, 0.1);
  store.append_executed(TaskId::kOD, 1, 2.0, 7.0, 0, 0, 2.2, 2.9, 0.1);

  // (frame, treq, dropped, dispatch, complete, energy): the first four are
  // the canonical key, executed (0) before dropped (1).
  using Row = std::tuple<std::int64_t, double, int, double, double, double>;
  std::vector<Row> rows;
  for (std::size_t i = 0; i < store.size(); ++i) {
    rows.emplace_back(store.frame()[i], store.treq_ms()[i],
                      store.dropped()[i], store.dispatch_ms()[i],
                      store.complete_ms()[i], store.energy_mj()[i]);
  }
  std::sort(rows.begin(), rows.end());
  store.sort_canonical();
  ASSERT_EQ(store.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(store.frame()[i], std::get<0>(rows[i])) << i;
    EXPECT_EQ(store.treq_ms()[i], std::get<1>(rows[i])) << i;
    EXPECT_EQ(store.dropped()[i], std::get<2>(rows[i])) << i;
    EXPECT_EQ(store.dispatch_ms()[i], std::get<3>(rows[i])) << i;
    EXPECT_EQ(store.complete_ms()[i], std::get<4>(rows[i])) << i;
    EXPECT_EQ(store.energy_mj()[i], std::get<5>(rows[i])) << i;
  }
}

TEST(RecordStore, AppendShiftedGrowsGeometrically) {
  // A scenario program appends one phase store per phase. An exact-fit
  // growth would reallocate (and copy the session so far) on every one of
  // these appends; doubling reallocates at most at 1, 2, 4, ..., 4096.
  RecordStore session;
  RecordStore phase;
  int reallocations = 0;
  for (int i = 0; i < 4096; ++i) {
    phase.clear();
    if (i % 3 == 0) {
      phase.append_dropped(TaskId::kKD, i, 0.5 * i, 0.5 * i + 3.0);
    } else {
      phase.append_executed(TaskId::kHT, i, 1.0, 11.0, i % 2, i % 5, 2.0,
                            4.0 + i, 0.25 * i, i % 7 == 0);
    }
    const std::size_t capacity = session.capacity();
    session.append_shifted(phase, 10.0 * i);
    if (session.capacity() != capacity) ++reallocations;
  }
  EXPECT_LE(reallocations, 13);
  ASSERT_EQ(session.size(), 4096u);
  session.shrink_to_fit();  // a program trims its session once at the end
  EXPECT_EQ(session.capacity(), 4096u);
  for (int i = 0; i < 4096; ++i) {
    const auto r = static_cast<std::size_t>(i);
    const double shift = 10.0 * i;
    EXPECT_EQ(session.frame()[r], i);
    if (i % 3 == 0) {
      EXPECT_EQ(session.task()[r], TaskId::kKD);
      EXPECT_EQ(session.dropped()[r], 1);
      EXPECT_EQ(session.treq_ms()[r], 0.5 * i + shift);
      EXPECT_EQ(session.tdl_ms()[r], 0.5 * i + 3.0 + shift);
      EXPECT_EQ(session.dispatch_ms()[r], 0.0);  // never dispatched
      EXPECT_EQ(session.complete_ms()[r], 0.0);
      EXPECT_EQ(session.sub_accel()[r], -1);
    } else {
      EXPECT_EQ(session.task()[r], TaskId::kHT);
      EXPECT_EQ(session.dropped()[r], 0);
      EXPECT_EQ(session.treq_ms()[r], 1.0 + shift);
      EXPECT_EQ(session.tdl_ms()[r], 11.0 + shift);
      EXPECT_EQ(session.dispatch_ms()[r], 2.0 + shift);
      EXPECT_EQ(session.complete_ms()[r], 4.0 + i + shift);
      EXPECT_EQ(session.energy_mj()[r], 0.25 * i);
      EXPECT_EQ(session.sub_accel()[r], i % 2);
      EXPECT_EQ(session.dvfs_level()[r], i % 5);
      EXPECT_EQ(session.resumed()[r], i % 7 == 0 ? 1 : 0);
    }
  }
}

TEST(RecordStore, FullSuiteRunRecordsMatchFrameCounts) {
  // On a real workload, every store's records agree with its model's frame
  // counts and carry the store's task: the full Table-2 suite.
  core::HarnessOptions opt;
  opt.run.duration_ms = 400.0;
  opt.dynamic_trials = 2;
  const core::Harness harness(hw::make_accelerator('J', 8192), opt);
  const auto outcome = harness.run_suite();
  const auto& suite = workload::benchmark_suite();
  std::size_t total_records = 0;
  for (std::size_t s = 0; s < suite.size(); ++s) {
    // Each scenario's final trial, re-run.
    const auto run = harness.run_once(
        suite[s], core::last_trial_seed(opt, outcome.trials[s]));
    for (const auto& m : run.per_model) {
      const RecordStore& recs = m.records;
      std::int64_t executed_count = 0, dropped_count = 0, misses = 0;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs.task()[i], m.task);
        if (recs.dropped()[i] != 0) {
          ++dropped_count;
        } else {
          ++executed_count;
          if (recs.missed_deadline(i)) ++misses;
        }
      }
      EXPECT_EQ(executed_count, m.frames_executed);
      EXPECT_EQ(dropped_count, m.frames_dropped);
      EXPECT_EQ(misses, m.deadline_misses);
      total_records += recs.size();
    }
  }
  EXPECT_GT(total_records, 0u);
}

}  // namespace
}  // namespace xrbench::runtime
