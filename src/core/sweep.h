#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/harness.h"
#include "util/thread_pool.h"

namespace xrbench::core {

/// One design point of a sweep: an accelerator system plus harness options,
/// benchmarked against the full Table-2 suite.
struct SweepPoint {
  std::string label;
  hw::AcceleratorSystem system;
  HarnessOptions options;
};

/// One (design, scenario) point: a single scenario benchmarked on one
/// accelerator system (the Figure-7 cascade sweep shape).
struct ScenarioSweepPoint {
  std::string label;
  hw::AcceleratorSystem system;
  HarnessOptions options;
  workload::UsageScenario scenario;
};

/// One (design, program) point: a multi-phase scenario program benchmarked
/// on one accelerator system (hand-off / co-presence session sweeps).
struct ProgramSweepPoint {
  std::string label;
  hw::AcceleratorSystem system;
  HarnessOptions options;
  workload::ScenarioProgram program;
};

/// Parallel evaluation engine for accelerator/scenario sweeps.
///
/// Every call runs through one fan-out. It turns each point into units: a
/// suite point gives one unit per suite scenario, a scenario or program
/// point gives one unit. Units whose points share an accelerator system
/// and energy constants share one CostTable build. The call is then one
/// util::ThreadPool::for_each range: its first G indices build its G
/// tables, and the rest run every unit's trials, in unit order. Every trial
/// is one core::run_trial call on a fresh ScenarioRunner with fresh policy
/// instances, at the deterministic seed options.run.seed + trial. Results
/// land in pre-sized slots and are reduced in unit order, so the output is
/// bit-identical to a serial run of the Harness: the worker count only
/// changes wall-clock time, never a score.
///
/// Thread count: pass the worker count explicitly, or use the default
/// constructor for "auto" (XRBENCH_THREADS env var when set, else hardware
/// concurrency). A count of 0 runs every index on the calling thread (the
/// serial baseline).
///
/// Arena reuse: every worker index of the pool (each pool thread, or the
/// caller of a 0-worker pool) owns a runtime::RunScratch and a
/// costmodel::AllLevelsScratch; consecutive trials on one worker reuse the
/// same simulator event pool, request vectors and SoA record arenas, and
/// consecutive CostTable builds the same layer-walk lanes, instead of
/// reallocating them (results stay bit-identical — reuse is invisible to
/// the determinism contract). Every trial ends the same way: it is scored
/// into its slot, a unit's final trial is summarized (summarize_trial),
/// and the run goes back to its worker's arena. No outcome keeps a raw run.
///
/// Shared trial loads: a trial's arrivals depend only on its
/// runtime::LoadKey (source models, duration, seed, jitter flag), never on
/// the design or the policies. Each call plans every scenario unit's (load
/// key, trial index) once: the first trial that needs it fills the slot
/// (std::call_once), the rest replay the plan read-only, and the plans are
/// freed when the call returns. Program units plan each phase inside
/// run_program: their phase seeds differ.
class SweepEngine {
 public:
  SweepEngine() : SweepEngine(util::ThreadPool::default_num_threads()) {}
  explicit SweepEngine(std::size_t num_threads);
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  std::size_t num_threads() const { return pool_.num_threads(); }

  /// Benchmarks every point against the full Table-2 suite and returns
  /// exactly (but parallel across points, scenarios and trials):
  ///   for (p : points) Harness(p.system, p.options).run_suite()
  /// bit for bit: every BenchmarkScore, ScenarioScore and ModelScore field,
  /// the trial counts and each scenario's TrialSummary. Callers that need a
  /// suite scenario's records, timeline or telemetry re-run its final trial
  /// through Harness::run_once at last_trial_seed.
  std::vector<SuitePointScore> run_suite_points(
      const std::vector<SweepPoint>& points);

  /// Benchmarks each (system, scenario) pair. Equivalent to:
  ///   for (p : points) Harness(p.system, p.options).run_scenario(p.scenario)
  /// Points sharing an identical system and energy constants share one
  /// CostTable build (policy sweeps over a single design build it once),
  /// as they do in run_suite_points and run_program_points.
  std::vector<ScenarioOutcome> run_scenario_points(
      const std::vector<ScenarioSweepPoint>& points);

  /// Benchmarks each (system, program) pair. Equivalent to:
  ///   for (p : points) Harness(p.system, p.options).run_program(p.program)
  /// with the same CostTable sharing and serial/parallel byte-identity
  /// contract as run_scenario_points.
  std::vector<ScenarioOutcome> run_program_points(
      const std::vector<ProgramSweepPoint>& points);

  /// Builds one CostTable per system in parallel (bench_table5-style
  /// cost-model sweeps). All builds share `cost_model` and therefore its
  /// model-level memo — identical (model, sub-accelerator partition) pairs
  /// across designs are evaluated once.
  std::vector<std::unique_ptr<runtime::CostTable>> build_cost_tables(
      const std::vector<hw::AcceleratorSystem>& systems,
      const costmodel::AnalyticalCostModel& cost_model);

  /// Model-level memo counters aggregated over every cost model this engine
  /// has instantiated. Call after the sweep returns; mid-flight values are
  /// a snapshot.
  costmodel::MemoStats model_memo_stats() const;

  /// Trial loads (runtime::ArrivalPlan) planned over every call so far: one
  /// per distinct scenario (load key, trial index) per call. Exact at any
  /// worker count.
  std::uint64_t loads_planned() const;

 private:
  struct Unit;

  /// The one fan-out behind run_suite_points, run_scenario_points and
  /// run_program_points: runs every trial of `units` and fills their slots
  /// (see the class comment).
  void run_units(std::vector<Unit>& units);

  /// One outcome per unit of a drained run_units call, in unit order.
  static std::vector<ScenarioOutcome> outcomes_of(std::vector<Unit>& units);

  /// Shared cost model for a point's energy constants. Points with equal
  /// EnergyParams share one model instance (and so its model-level memo),
  /// which is what makes repeated designs stop re-walking identical models.
  costmodel::AnalyticalCostModel& model_for(
      const costmodel::EnergyParams& energy);

  /// `system`'s CostTable under `model`, built with `worker`'s layer-walk
  /// lanes.
  std::unique_ptr<runtime::CostTable> build_table(
      std::size_t worker, const hw::AcceleratorSystem& system,
      const costmodel::AnalyticalCostModel& model);

  util::ThreadPool pool_;
  /// One arena pair per worker index: slot 0 = the caller of a 0-worker
  /// pool, slots 1..N = pool threads.
  std::vector<runtime::RunScratch> scratch_;
  std::vector<costmodel::AllLevelsScratch> table_scratch_;
  std::vector<std::pair<costmodel::EnergyParams,
                        std::unique_ptr<costmodel::AnalyticalCostModel>>>
      models_;
  mutable std::mutex models_mutex_;
  std::atomic<std::uint64_t> loads_planned_{0};
};

}  // namespace xrbench::core
