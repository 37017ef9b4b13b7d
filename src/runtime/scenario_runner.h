#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "runtime/fault_plan.h"
#include "runtime/governor.h"
#include "runtime/record_store.h"
#include "runtime/request.h"
#include "runtime/scheduler.h"
#include "runtime/telemetry.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {

/// Per-run knobs (paper §3.5: default run duration is one second; jitter is
/// always modeled but can be disabled for ablations).
struct RunConfig {
  double duration_ms = 1000.0;
  std::uint64_t seed = 42;     ///< Jitter + control-flow trial seed.
  bool enable_jitter = true;
  /// Constant device power (sensors, host SoC, display path) amortized into
  /// each inference's energy over its frame window (1/FPS_model). This puts
  /// per-inference energies in the regime the paper's Enmax = 1500 mJ
  /// implies (a 3 FPS speech inference owns ~333 ms of device time). Set to
  /// 0 to score pure accelerator energy.
  double system_baseline_w = 2.0;
  /// Fault-injection profile for this run. When enabled it overrides the
  /// hardware's own spec (AcceleratorSystem::faults); the default
  /// (disabled) spec defers to the hardware, and when neither enables any
  /// fault class the runner's fault machinery is never armed — fault-free
  /// runs are byte-identical to builds that predate the subsystem.
  FaultSpec faults;
};

/// Per-model outcome of one scenario run.
struct ModelRunStats {
  models::TaskId task = models::TaskId::kHT;
  double target_fps = 0.0;
  /// NumFrm(mu): QoE denominator. For independently-driven and
  /// data-dependent models this is target_fps x duration; for
  /// control-dependent models it is the number of triggered requests.
  std::int64_t frames_expected = 0;
  std::int64_t frames_executed = 0;
  std::int64_t frames_dropped = 0;
  std::int64_t deadline_misses = 0;  ///< Executed but finished late.
  /// Every request's outcome, executed or dropped (SoA columns).
  RecordStore records;

  double qoe() const {
    return frames_expected == 0
               ? 1.0
               : static_cast<double>(frames_executed) /
                     static_cast<double>(frames_expected);
  }
};

/// Complete outcome of one scenario run on one accelerator system. The
/// per-model records are the one record of what executed: the execution
/// timeline is derived from them (timeline()), and busy time is counted
/// once, in `telemetry`.
struct ScenarioRunResult {
  std::string scenario_name;
  double duration_ms = 0.0;
  std::vector<ModelRunStats> per_model;
  /// Busy spans of dispatches that left no record: transient-fault burns
  /// and outage kills, in the order they ended (program runs shift them
  /// onto the session timeline). Empty on fault-free runs.
  std::vector<BusyInterval> aborted;
  double total_energy_mj = 0.0;
  /// Session-timeline start of each phase when the result came from
  /// run_program ({0} for a single-phase program); empty for plain
  /// single-scenario runs.
  std::vector<double> phase_start_ms;
  /// End-of-run runtime telemetry snapshot: per-sub-accelerator busy/idle
  /// time, utilization EWMAs, dynamic/static/idle energy split, DVFS-level
  /// history, per-task latency EWMAs. Bit-deterministic across worker
  /// counts (it advances only on simulated-clock events). For program runs
  /// the additive fields accumulate across phases and the windowed fields
  /// carry the final phase's view (Telemetry::merge_from).
  Telemetry telemetry;
  /// Fault-injection and graceful-degradation counters. `enabled` is false
  /// on fault-free runs with no admission rejections (program runs OR the
  /// phases); the report prints its resilience section only when set.
  ResilienceStats resilience;

  const ModelRunStats* find(models::TaskId task) const;

  /// The Figure-6 execution log: one span per executed record plus the
  /// `aborted` spans, sorted by (start, unit, task, frame).
  std::vector<BusyInterval> timeline() const;

  /// Hardware utilization of sub-accelerator `sa` over the run window
  /// (the §4.2.2 "utilization is the wrong metric" discussion): its
  /// telemetry busy time over the duration, capped at 1.
  double utilization(std::size_t sa) const;
};

/// One source-model request of a trial load with its firing key: `when` is
/// its request time clamped to the run start and `order` its generation
/// index (model slot, then frame).
struct Arrival {
  double when = 0.0;
  std::size_t order = 0;
  InferenceRequest req;
  bool operator<(const Arrival& o) const {
    if (when != o.when) return when < o.when;
    return order < o.order;
  }
};

/// Everything load generation (Figure 2's load generator, Definitions 7-8)
/// reads: each source model's (task, target FPS) in scenario order, the run
/// window, the trial seed and the jitter flag. The design, energy constants,
/// policies, faults, trigger probabilities and dependent models never change
/// a trial's arrivals, so runs that differ only in those share one load.
struct LoadKey {
  struct Source {
    models::TaskId task = models::TaskId::kHT;
    double target_fps = 0.0;
  };
  std::vector<Source> sources;
  double duration_ms = 0.0;
  std::uint64_t seed = 0;
  bool enable_jitter = true;

  /// True when this key is load_key(scenario, config). Compares in place,
  /// allocating nothing.
  bool matches(const workload::UsageScenario& scenario,
               const RunConfig& config) const;
};

/// The load key of running `scenario` under `config`.
LoadKey load_key(const workload::UsageScenario& scenario,
                 const RunConfig& config);

/// One trial's source-model arrivals, sorted by (when, order), with the key
/// they were generated from. Only plan_arrivals() fills one, so a plan's
/// arrivals are always its key's; a default-constructed plan is empty and
/// matches no run.
class ArrivalPlan {
 public:
  const LoadKey& key() const { return key_; }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  friend ArrivalPlan plan_arrivals(const workload::UsageScenario& scenario,
                                   const RunConfig& config);
  LoadKey key_;
  std::vector<Arrival> arrivals_;
};

/// Generates the load a run of `scenario` under `config` replays: the same
/// arrivals ScenarioRunner::run generates when given no plan. A plan is
/// read-only, so any number of concurrent runs of its key may share it.
/// Throws std::invalid_argument for a scenario or config run() rejects.
ArrivalPlan plan_arrivals(const workload::UsageScenario& scenario,
                          const RunConfig& config);

/// Reusable run-state arena for ScenarioRunner::run/run_program. A sweep
/// runs thousands of sub-millisecond trials, so per-run allocations are a
/// measurable tax. A RunScratch keeps a run's bulk storage alive between
/// runs: the simulator's event pool and queue, the arrival array (used only
/// by runs given no ArrivalPlan), the pending vector, the per-unit and
/// per-model state and the telemetry's level histories. The runner clear()s
/// and reuses all of it (capacity is retained — enforced by test), and
/// recycle() returns a consumed result's SoA record stores to the pool.
///
/// A warm run still allocates a few small buffers, and their number does
/// not grow with the run's length (enforced by test): the result's per-model
/// vector and telemetry snapshot (one vector plus one level history per
/// sub-accelerator), the scenario name when it outgrows the small-string
/// buffer, one dependency fan-out list per upstream model, one sort
/// permutation per model whose records finish out of canonical order, and
/// on faulted runs the result's aborted spans. On J @ 8192 PEs with DVFS
/// over the Table-2 suite that is at most 6 operator-new calls per warm
/// fault-free run; policies allocate on their own besides (ondemand adds
/// one).
///
/// A scratch is single-threaded state: never share one across concurrent
/// runs (SweepEngine keys one per worker thread). Results produced with a
/// scratch are bit-identical to scratch-free runs — reuse changes where
/// bytes live, never what they hold (enforced by test).
class RunScratch {
 public:
  RunScratch();
  ~RunScratch();
  RunScratch(RunScratch&&) noexcept;
  RunScratch& operator=(RunScratch&&) noexcept;
  RunScratch(const RunScratch&) = delete;
  RunScratch& operator=(const RunScratch&) = delete;

  /// Returns `result`'s record stores to the pool (call once the result
  /// has been scored/consumed; `result` is left empty but valid).
  void recycle(ScenarioRunResult&& result);

  /// Pool diagnostics (capacity-retention tests).
  std::size_t pooled_stores() const;
  std::size_t pooled_record_capacity() const;  ///< Sum over pooled stores.

 private:
  friend class ScenarioRunner;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The benchmark runtime (Figure 2): load generator, request queues,
/// dependency tracker, active-inference table and dispatcher around a
/// discrete-event simulation of one accelerator system.
///
/// Semantics:
///  * Each independently-driven model consumes its driving sensor stream at
///    the scenario's target rate (every `sensor_fps/target_fps`-th frame,
///    as in Figure 3); request times follow Definition 7 with jitter.
///    Requests arriving at one instant are handled in generation order
///    (model slot, then frame), before any completion, retry or outage
///    event at that instant.
///  * Deadlines follow Definition 8 at the model's consumption rate: the
///    deadline of frame f is the (jitter-free) arrival of the next frame
///    the model consumes.
///  * Dependent models are triggered by upstream completions (data deps
///    always, control deps with the scenario's probability); their request
///    time is the upstream completion, their deadline keeps the sensor
///    timing.
///  * A request that has not STARTED when its deadline passes is dropped
///    (stale input). A request that started late finishes and counts as a
///    deadline miss (real-time score ~ 0 but QoE credit, matching the
///    Figure-6 discussion).
///  * Multi-modal models (DR) wait for all input streams of the frame.
///  * With a fault plan armed (see RunConfig::faults): a transiently
///    faulted dispatch burns its full latency and energy, then retries
///    (bounded, with simulated-time backoff) while the deadline is still
///    reachable, else drops. An outage kills in-flight work (partial busy
///    time and pro-rated energy are charged), re-queues it, and hides the
///    unit from the idle list until the window ends; re-placement onto a
///    different unit counts as a failover. Throttle windows clamp the
///    governor's level at dispatch. The whole schedule is precomputed from
///    the trial seed, so faulted sweeps stay byte-identical at any worker
///    count.
///
/// Policies are consulted through runtime::DispatchContext, which carries
/// the per-run Telemetry alongside the CostTable/hardware views; the
/// telemetry advances only at dispatch/retire events, so governed runs stay
/// inside the parallel-sweep byte-identity guarantee.
class AdmissionController;

class ScenarioRunner {
 public:
  /// Upper bound on the records one run() may predict (the sum over its
  /// models of target_fps x duration). run() reserves record, request and
  /// arrival storage for every predicted record up front, about 175 bytes
  /// each, and throws std::invalid_argument before reserving anything when
  /// the prediction exceeds the bound. That caps one run at ~0.7 GB, about
  /// six hours of the busiest Table-2 scenario (VR Gaming, 180
  /// inferences/s). run_program() applies the same bound to the sum over
  /// all its phases, since the session keeps every phase's records.
  static constexpr std::int64_t kMaxRunRecords = 4'000'000;

  ScenarioRunner(const hw::AcceleratorSystem& system, const CostTable& costs);

  /// Runs `scenario`. When `governor` is non-null the dispatcher consults it
  /// at every dispatch for the DVFS level to execute under (and at every
  /// retire for the level to park at); a null governor runs everything at
  /// each sub-accelerator's nominal level and parks where it ran. A non-null
  /// `scratch` reuses that arena's buffers instead of allocating fresh ones
  /// (bit-identical results; see RunScratch).
  /// A non-null `admission` is consulted once per request at its arrival
  /// instant; a rejection drops the frame immediately (drop-early). Null —
  /// or the built-in "admit-all" — admits everything, leaving results
  /// byte-identical to admission-free runs.
  /// A non-null `plan` replays that plan's arrivals instead of generating
  /// them into the scratch (bit-identical results: generation is the same
  /// code either way). Throws std::invalid_argument when the plan's key
  /// does not match (scenario, config), so a plan for another load never
  /// runs.
  ScenarioRunResult run(const workload::UsageScenario& scenario,
                        Scheduler& scheduler, const RunConfig& config,
                        FrequencyGovernor* governor = nullptr,
                        RunScratch* scratch = nullptr,
                        AdmissionController* admission = nullptr,
                        const ArrivalPlan* plan = nullptr) const;

  /// Executes a scenario program as one continuous timeline. Each phase
  /// runs for its duration with a seed derived from `config.seed` and the
  /// phase's strided seed_offset (offset 0 = the run seed itself;
  /// config.duration_ms is ignored — phases carry their own windows); at a
  /// phase boundary every in-flight inference retires deterministically
  /// (completions drain, undispatchable requests drop — exactly the
  /// end-of-run rule) before the next phase's model set takes over.
  /// Record/QoE/energy accounting is cumulative across phases: per-model
  /// stats merge by task, record and aborted-span times are shifted onto
  /// the session timeline, and `phase_start_ms` marks the boundaries. Policy
  /// state (scheduler/governor) carries across boundaries — reset() is the
  /// caller's per-run contract, not a per-phase one — while the telemetry
  /// each phase's policies see starts fresh at the boundary (the result
  /// telemetry still accumulates the whole session). A single-phase program
  /// is bit-identical to run() on its scenario (the compatibility anchor,
  /// enforced by test).
  /// Fault-spec precedence for every phase: program.faults (when enabled)
  /// over config.faults over the hardware's spec. Each phase materializes
  /// its own FaultPlan from its derived phase seed, so phases decorrelate
  /// exactly like their jitter streams do. `admission` behaves as in run(),
  /// with controller state carrying across phase boundaries like the other
  /// policies. Throws std::invalid_argument before any phase runs when the
  /// phases together predict more than kMaxRunRecords records.
  ScenarioRunResult run_program(const workload::ScenarioProgram& program,
                                Scheduler& scheduler, const RunConfig& config,
                                FrequencyGovernor* governor = nullptr,
                                RunScratch* scratch = nullptr,
                                AdmissionController* admission = nullptr) const;

 private:
  const hw::AcceleratorSystem* system_;
  const CostTable* costs_;
};

}  // namespace xrbench::runtime
