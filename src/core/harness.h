#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/score.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/scenario_runner.h"
#include "workload/scenario.h"

namespace xrbench::core {

/// Harness-level options (the user-defined benchmark inputs of Figure 2).
/// Policies are named, not enumerated: the strings resolve through
/// runtime::PolicyRegistry at run time, so user-registered policies are
/// first-class harness inputs and unknown names fail with the registered
/// list in the error.
struct HarnessOptions {
  runtime::RunConfig run;  ///< duration, seed, jitter
  ScoreConfig score;
  std::string scheduler = "latency-greedy";
  /// DVFS policy consulted at dispatch time. "fixed-nominal" reproduces the
  /// pre-DVFS behavior exactly (every inference runs at the nominal clock).
  std::string governor = "fixed-nominal";
  /// Per-sub-accelerator governor overrides, (sub-accel index, governor
  /// name): sub-accelerator i runs under its override when present, under
  /// `governor` otherwise (heterogeneous governor mixes).
  std::vector<std::pair<std::size_t, std::string>> governor_overrides;
  /// Admission-control policy consulted once per request at its arrival
  /// instant. "admit-all" reproduces pre-admission behavior byte-exactly;
  /// "drop-early" rejects requests whose telemetry-projected completion
  /// already misses the deadline (graceful degradation under faults).
  std::string admission = "admit-all";
  /// Trials averaged for dynamic (stochastic) scenarios; static scenarios
  /// always run once. Paper runs 200 trials for the Figure-7 sweep.
  int dynamic_trials = 20;
  costmodel::EnergyParams energy;  ///< Cost-model energy constants.
};

/// Throws std::invalid_argument when a governor_overrides entry names a
/// sub-accelerator index the system does not have — an out-of-range
/// override would otherwise be silently inert (the dispatcher only ever
/// queries real hardware indices). Harness validates at construction;
/// SweepEngine validates per point.
void validate_governor_overrides(const HarnessOptions& options,
                                 const hw::AcceleratorSystem& system);

/// Trials a scenario point averages: options.dynamic_trials (at least one)
/// when the scenario is dynamic (stochastic), one when it is static.
int trials_for(const workload::UsageScenario& scenario,
               const HarnessOptions& options);

/// Trials a program point averages: as for a scenario, where a program is
/// dynamic when any of its phases is.
int trials_for(const workload::ScenarioProgram& program,
               const HarnessOptions& options);

/// Seed of a point's final trial, options.run.seed + trials - 1. A caller
/// that needs that trial's records, timeline or telemetry re-runs it here
/// through Harness::run_once or run_program_once; the determinism contract
/// makes the re-run bit-identical to the run its outcome summarizes.
std::uint64_t last_trial_seed(const HarnessOptions& options, int trials);

/// One trial of `scenario` on `runner` at `seed` (options.run with its seed
/// replaced): fresh scheduler, governor map and admission controller, named
/// by `options` and reset. Harness::run_once and every SweepEngine trial
/// run through here, so a sweep point's trial t is this call at seed
/// options.run.seed + t. A non-null `scratch` lends the run its arenas and
/// a non-null `plan` its arrivals (both bit-identical; see
/// ScenarioRunner::run).
runtime::ScenarioRunResult run_trial(const runtime::ScenarioRunner& runner,
                                     const workload::UsageScenario& scenario,
                                     const HarnessOptions& options,
                                     std::uint64_t seed,
                                     runtime::RunScratch* scratch = nullptr,
                                     const runtime::ArrivalPlan* plan = nullptr);

/// One trial of `program`, as above; a scheduler, governor or admission
/// name the program sets wins over the one in `options`.
runtime::ScenarioRunResult run_trial(const runtime::ScenarioRunner& runner,
                                     const workload::ScenarioProgram& program,
                                     const HarnessOptions& options,
                                     std::uint64_t seed,
                                     runtime::RunScratch* scratch = nullptr);

/// What outcomes keep of a point's final trial besides its score.
struct TrialSummary {
  runtime::ResilienceStats resilience;  ///< Fault and degradation counters.
  double total_energy_mj = 0.0;
  /// Mean completion - request latency over executed (not dropped)
  /// inferences; 0 when none executed.
  double mean_latency_ms = 0.0;
};

/// The summary of `run`; every outcome's `last` is this call on its final
/// trial, made before the run goes back to its arena.
TrialSummary summarize_trial(const runtime::ScenarioRunResult& run);

/// Outcome of benchmarking one scenario or program on one accelerator
/// system.
struct ScenarioOutcome {
  ScenarioScore score;  ///< Averaged over trials if dynamic.
  int trials = 1;
  TrialSummary last;    ///< Of the final trial, at last_trial_seed.
};

/// Outcome of one design against the full Table-2 suite, from
/// Harness::run_suite and SweepEngine::run_suite_points alike.
struct SuitePointScore {
  std::string accelerator_id;
  std::int64_t total_pes = 0;
  /// The benchmark score; score.scenarios[s] is suite scenario s's
  /// trial-averaged score.
  BenchmarkScore score;
  std::vector<int> trials;         ///< Per suite scenario.
  std::vector<TrialSummary> last;  ///< Per suite scenario, its final trial.
};

/// XRBench harness facade (Figure 2): wires the model zoo, the analytical
/// cost model, the accelerator system, the runtime and the scoring module
/// together behind two calls — run_scenario() and run_suite(). Outcomes
/// carry scores and a TrialSummary; a caller that prints a run re-runs its
/// final trial through run_once() or run_program_once() at
/// last_trial_seed().
///
/// Typical use:
///   auto system = hw::make_accelerator('J', 8192);
///   core::Harness harness(system);
///   auto outcome = harness.run_suite();
///   std::cout << outcome.score.overall;
class Harness {
 public:
  explicit Harness(hw::AcceleratorSystem system, HarnessOptions options = {});

  /// Pinned in place: runner_ refers to system_, so a moved harness would
  /// run the moved-from (empty) system.
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  Harness(Harness&&) = delete;
  Harness& operator=(Harness&&) = delete;

  const hw::AcceleratorSystem& system() const { return system_; }
  const HarnessOptions& options() const { return options_; }
  const runtime::CostTable& cost_table() const { return *cost_table_; }

  /// One raw run of `scenario` with an explicit seed (no score averaging):
  /// run_trial on this harness's runner and options. A non-null `scratch`
  /// reuses that arena across runs (bit-identical results; trial loops pass
  /// one so the big per-trial allocations — simulator event pool, record
  /// arenas, request vectors — are reused instead of reallocated).
  runtime::ScenarioRunResult run_once(const workload::UsageScenario& scenario,
                                      std::uint64_t seed,
                                      runtime::RunScratch* scratch =
                                          nullptr) const;

  /// Benchmarks one scenario: averages trials_for(scenario, options)
  /// trials at seeds seed, seed+1, ... and summarizes the last. This serial
  /// loop is the reference SweepEngine is held to.
  ScenarioOutcome run_scenario(const workload::UsageScenario& scenario) const;

  /// One raw run of a scenario program (continuous multi-phase timeline):
  /// run_trial on this harness's runner and options. A program naming its
  /// own scheduler, governor or admission policy overrides the harness
  /// options for that run.
  runtime::ScenarioRunResult run_program_once(
      const workload::ScenarioProgram& program, std::uint64_t seed,
      runtime::RunScratch* scratch = nullptr) const;

  /// Benchmarks one program over trials_for(program, options) trials,
  /// mirroring run_scenario.
  ScenarioOutcome run_program(const workload::ScenarioProgram& program) const;

  /// Benchmarks every Table-2 scenario and combines them into the
  /// XRBench score (Definition 16).
  SuitePointScore run_suite() const;

 private:
  hw::AcceleratorSystem system_;
  HarnessOptions options_;
  costmodel::AnalyticalCostModel cost_model_;
  std::unique_ptr<runtime::CostTable> cost_table_;
  runtime::ScenarioRunner runner_;
};

}  // namespace xrbench::core
