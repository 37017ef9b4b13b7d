// Pins ScenarioRunner output to committed golden digests. Every other
// runner test compares a run with another run of the same build; these
// compare with known-good bits, so a change that shifts every output by the
// same amount (an event-order change, a reordered energy sum) fails here.
//
// Each digest covers, for every run of its case: every RecordStore column,
// every timeline() entry, the per-model counts, the telemetry busy time and
// snapshot, ResilienceStats and total_energy_mj. An intended change to
// simulated output regenerates the table (the failure message prints the
// new value) and says so.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "runtime/policy_registry.h"
#include "runtime/scenario_runner.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {
namespace {

/// 64-bit FNV-1a over 8-byte words: the bit pattern of every double and
/// the value of every integer, in a fixed order.
class Digest {
 public:
  void add(const ScenarioRunResult& r) {
    num(r.duration_ms);
    num(r.total_energy_mj);
    count(r.telemetry.num_sub_accels());
    for (std::size_t sa = 0; sa < r.telemetry.num_sub_accels(); ++sa) {
      num(r.telemetry.sub_accel(sa).busy_ms);
    }
    count(r.phase_start_ms.size());
    for (double d : r.phase_start_ms) num(d);
    count(r.per_model.size());
    for (const auto& m : r.per_model) add(m);
    const std::vector<BusyInterval> timeline = r.timeline();
    count(timeline.size());
    for (const auto& iv : timeline) {
      count(iv.sub_accel);
      count(models::task_index(iv.task));
      count(iv.frame);
      num(iv.start_ms);
      num(iv.end_ms);
    }
    add(r.telemetry);
    add(r.resilience);
  }
  std::uint64_t value() const { return h_; }

 private:
  void add(const ModelRunStats& m) {
    count(models::task_index(m.task));
    num(m.target_fps);
    for (std::int64_t c : {m.frames_expected, m.frames_executed,
                           m.frames_dropped, m.deadline_misses}) {
      count(c);
    }
    const RecordStore& s = m.records;
    count(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      count(models::task_index(s.task()[i]));
      count(s.frame()[i]);
      for (double d : {s.treq_ms()[i], s.tdl_ms()[i], s.dispatch_ms()[i],
                       s.complete_ms()[i], s.energy_mj()[i]}) {
        num(d);
      }
      count(s.sub_accel()[i]);
      count(s.dvfs_level()[i]);
      count(s.dropped()[i]);
      count(s.resumed()[i]);
    }
  }
  void add(const Telemetry& t) {
    count(t.num_sub_accels());
    for (std::size_t sa = 0; sa < t.num_sub_accels(); ++sa) {
      const SubAccelTelemetry& s = t.sub_accel(sa);
      for (double d : {s.busy_ms, s.idle_ms, s.util_ewma, s.last_event_ms,
                       s.last_abort_ms, s.dynamic_mj, s.static_mj,
                       s.idle_mj}) {
        num(d);
      }
      for (std::int64_t c : {std::int64_t{s.busy}, s.dispatches, s.retires,
                             s.aborts, std::int64_t{s.last_level},
                             std::int64_t{s.park_level}}) {
        count(c);
      }
      count(s.recent_levels.size());
      for (int lv : s.recent_levels) count(lv);
    }
    count(t.queue_depth());
    num(t.queue_depth_ewma());
    for (std::size_t i = 0; i < models::kNumTasks; ++i) {
      const auto task = static_cast<models::TaskId>(i);
      num(t.task_latency_ewma(task));
      count(t.task_completions(task));
    }
  }
  void add(const ResilienceStats& r) {
    for (std::int64_t c :
         {std::int64_t{r.enabled}, r.transient_faults, r.retries,
          r.retry_give_ups, r.outage_kills, r.failovers, r.throttle_clamps,
          r.drops_early, r.drops_late, r.resumes}) {
      count(c);
    }
    num(r.checkpoint_saved_ms);
  }
  template <typename I>
  void count(I v) {
    word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void num(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    word(bits);
  }
  void word(std::uint64_t w) { h_ = (h_ ^ w) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One accelerator system with its cost table and runner. A case runs
/// every trial seed and shares one RunScratch across its runs, recycling
/// each result, like a sweep worker's trials.
class Rig {
 public:
  static constexpr std::uint64_t kSeeds[] = {1, 2, 42};

  explicit Rig(hw::AcceleratorSystem system)
      : system_(std::move(system)),
        table_(system_, cost_model_),
        runner_(system_, table_) {}

  /// Every Table-2 scenario at every trial seed, each run under fresh
  /// `sched` / `gov` instances.
  std::uint64_t suite_digest(const std::string& sched, const std::string& gov,
                             RunConfig cfg) {
    const auto& registry = PolicyRegistry::instance();
    Digest digest;
    RunScratch scratch;
    for (const auto& scenario : workload::benchmark_suite()) {
      for (std::uint64_t seed : kSeeds) {
        cfg.seed = seed;
        auto scheduler = registry.make_scheduler(sched);
        auto governor = registry.make_governor(gov);
        auto run =
            runner_.run(scenario, *scheduler, cfg, governor.get(), &scratch);
        digest.add(run);
        scratch.recycle(std::move(run));
      }
    }
    return digest.value();
  }

  /// Digests of `scenario` at `cfg` run twice under fresh `sched` / `gov`
  /// instances on one scratch: first generating its own load, then
  /// replaying plan_arrivals' plan (the scratch's arrival array still holds
  /// the first run's load, which the second must ignore).
  std::pair<std::uint64_t, std::uint64_t> plan_free_and_planned(
      const workload::UsageScenario& scenario, const std::string& sched,
      const std::string& gov, const RunConfig& cfg) {
    const auto& registry = PolicyRegistry::instance();
    const ArrivalPlan plan = plan_arrivals(scenario, cfg);
    RunScratch scratch;
    std::uint64_t digests[2] = {};
    for (const ArrivalPlan* p : {static_cast<const ArrivalPlan*>(nullptr),
                                 &plan}) {
      auto scheduler = registry.make_scheduler(sched);
      auto governor = registry.make_governor(gov);
      auto run = runner_.run(scenario, *scheduler, cfg, governor.get(),
                             &scratch, nullptr, p);
      Digest digest;
      digest.add(run);
      digests[p == nullptr ? 0 : 1] = digest.value();
      scratch.recycle(std::move(run));
    }
    return {digests[0], digests[1]};
  }

  std::uint64_t program_digest(const std::string& program,
                               const std::string& sched,
                               const std::string& gov) {
    const auto& registry = PolicyRegistry::instance();
    Digest digest;
    RunScratch scratch;
    for (std::uint64_t seed : kSeeds) {
      RunConfig cfg;
      cfg.seed = seed;
      auto scheduler = registry.make_scheduler(sched);
      auto governor = registry.make_governor(gov);
      auto run = runner_.run_program(workload::program_by_name(program),
                                     *scheduler, cfg, governor.get(),
                                     &scratch);
      digest.add(run);
      scratch.recycle(std::move(run));
    }
    return digest.value();
  }

 private:
  costmodel::AnalyticalCostModel cost_model_;
  hw::AcceleratorSystem system_;
  CostTable table_;
  ScenarioRunner runner_;
};

struct Golden {
  const char* scheduler;
  const char* governor;
  std::uint64_t digest;
};

template <std::size_t N>
void expect_suite_goldens(Rig& rig, const RunConfig& cfg,
                          const Golden (&golden)[N]) {
  for (const auto& g : golden) {
    const std::uint64_t got = rig.suite_digest(g.scheduler, g.governor, cfg);
    EXPECT_EQ(got, g.digest) << g.scheduler << " x " << g.governor
                             << ": got 0x" << std::hex << got;
  }
}

TEST(RunnerGolden, SuiteOnJWithDvfs) {
  Rig rig(hw::with_default_dvfs(hw::make_accelerator('J', 8192)));
  const Golden golden[] = {
      {"latency-greedy", "deadline-aware", 0x90477ed1595bca27ULL},
      {"latency-greedy", "ondemand", 0x9905f9fc9af60fafULL},
      {"edf", "deadline-aware", 0xa257c63b30d19b62ULL},
      {"edf", "ondemand", 0x274d704c75de0e40ULL},
      {"least-loaded", "deadline-aware", 0x0a6c79860367be9aULL},
      {"least-loaded", "ondemand", 0xe467120102b49380ULL},
  };
  expect_suite_goldens(rig, RunConfig{}, golden);
}

TEST(RunnerGolden, SuiteOnJWithDvfsWithoutJitter) {
  // Jitter-free arrivals tie exactly: models that read one camera at one
  // rate arrive at the same instant, so this pins the tie order.
  Rig rig(hw::with_default_dvfs(hw::make_accelerator('J', 8192)));
  RunConfig cfg;
  cfg.enable_jitter = false;
  const Golden golden[] = {
      {"latency-greedy", "deadline-aware", 0xc7028b51abc0ccecULL},
      {"latency-greedy", "ondemand", 0xfd9238deda92d2bfULL},
      {"edf", "deadline-aware", 0xb4fa5b3bba00c5ddULL},
      {"edf", "ondemand", 0x6365c24218505b38ULL},
      {"least-loaded", "deadline-aware", 0x65b0cd21d09aaf2bULL},
      {"least-loaded", "ondemand", 0x84e84ad503626758ULL},
  };
  expect_suite_goldens(rig, cfg, golden);
}

/// Transient faults with retries and give-ups, outage kills with
/// checkpointed resumes and failovers, and throttle clamps all occur on M.
RunConfig every_fault_class() {
  RunConfig cfg;
  cfg.faults.transient_rate = 0.05;
  cfg.faults.max_retries = 2;
  cfg.faults.retry_backoff_ms = 1.0;
  cfg.faults.outage_rate_per_s = 2.0;
  cfg.faults.outage_ms = 20.0;
  cfg.faults.throttle_rate_per_s = 2.0;
  cfg.faults.throttle_ms = 15.0;
  cfg.faults.throttle_max_level = 1;
  cfg.faults.checkpoint = true;
  cfg.faults.checkpoint_overhead_ms = 0.2;
  return cfg;
}

TEST(RunnerGolden, SuiteOnMWithEveryFaultClass) {
  Rig rig(hw::with_default_dvfs(hw::make_accelerator('M', 8192)));
  const RunConfig cfg = every_fault_class();
  const Golden golden[] = {
      {"latency-greedy", "ondemand", 0x91d97df582223e76ULL},
      {"fault-aware", "deadline-aware", 0xe68f5412ec1f80f0ULL},
  };
  expect_suite_goldens(rig, cfg, golden);
}

TEST(RunnerGolden, PlannedRunsMatchPlanFreeRuns) {
  // A shared ArrivalPlan replays exactly the load run() generates itself:
  // every Table-2 and extension scenario, jitter on and off, two seeds, on
  // a fault-free and a fully faulted rig.
  Rig clean(hw::with_default_dvfs(hw::make_accelerator('J', 8192)));
  Rig faulty(hw::with_default_dvfs(hw::make_accelerator('M', 8192)));
  std::vector<workload::UsageScenario> scenarios = workload::benchmark_suite();
  for (const auto& s : workload::extension_scenarios()) scenarios.push_back(s);
  for (const auto& scenario : scenarios) {
    for (bool jitter : {true, false}) {
      for (std::uint64_t seed : {1, 42}) {
        RunConfig cfg;
        cfg.enable_jitter = jitter;
        cfg.seed = seed;
        RunConfig faulted = every_fault_class();
        faulted.enable_jitter = jitter;
        faulted.seed = seed;
        const auto a = clean.plan_free_and_planned(scenario, "latency-greedy",
                                                   "ondemand", cfg);
        const auto b = faulty.plan_free_and_planned(scenario, "fault-aware",
                                                    "deadline-aware", faulted);
        EXPECT_EQ(a.first, a.second)
            << scenario.name << ", jitter " << jitter << ", seed " << seed;
        EXPECT_EQ(b.first, b.second) << scenario.name << " with faults, jitter "
                                     << jitter << ", seed " << seed;
      }
    }
  }
}

TEST(RunnerGolden, HandOffProgram) {
  Rig rig(hw::with_default_dvfs(hw::make_accelerator('J', 8192)));
  const std::uint64_t got =
      rig.program_digest("Scenario Hand-Off", "latency-greedy", "ondemand");
  EXPECT_EQ(got, 0x4dae7116790f9675ULL) << "got 0x" << std::hex << got;
}

}  // namespace
}  // namespace xrbench::runtime
