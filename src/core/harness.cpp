#include "core/harness.h"

#include <algorithm>

#include "runtime/policy_registry.h"

namespace xrbench::core {

void validate_governor_overrides(const HarnessOptions& options,
                                 const hw::AcceleratorSystem& system) {
  for (const auto& [sub_accel, name] : options.governor_overrides) {
    if (sub_accel >= system.sub_accels.size()) {
      throw std::invalid_argument(
          "governor_overrides: sub-accelerator index " +
          std::to_string(sub_accel) + " out of range (system '" + system.id +
          "' has " + std::to_string(system.sub_accels.size()) +
          " sub-accelerators)");
    }
  }
}

Harness::Harness(hw::AcceleratorSystem system, HarnessOptions options)
    : system_(std::move(system)),
      options_(std::move(options)),
      cost_model_(options_.energy),
      cost_table_(
          std::make_unique<runtime::CostTable>(system_, cost_model_)),
      runner_(system_, *cost_table_) {
  validate_governor_overrides(options_, system_);
  // Fail bad fault profiles at construction, not mid-sweep: begin_run
  // re-validates the resolved spec per run, but the harness owns both
  // candidate specs and can report them eagerly.
  runtime::validate_fault_spec(system_.faults);
  runtime::validate_fault_spec(options_.run.faults);
}

runtime::ScenarioRunResult Harness::run_once(
    const workload::UsageScenario& scenario, std::uint64_t seed,
    runtime::RunScratch* scratch) const {
  return run_trial(runner_, scenario, options_, seed, scratch);
}

runtime::ScenarioRunResult Harness::run_program_once(
    const workload::ScenarioProgram& program, std::uint64_t seed,
    runtime::RunScratch* scratch) const {
  return run_trial(runner_, program, options_, seed, scratch);
}

namespace {

/// The three policies of one trial, resolved through the registry and
/// reset: `options` name them, and a program's own names, when set, win.
struct TrialPolicies {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::FrequencyGovernor> governor;
  std::unique_ptr<runtime::AdmissionController> admission;
};

TrialPolicies make_policies(const HarnessOptions& options,
                            const workload::ScenarioProgram* program) {
  const std::string* scheduler = &options.scheduler;
  const std::string* governor = &options.governor;
  const std::string* admission = &options.admission;
  if (program != nullptr) {
    if (!program->scheduler.empty()) scheduler = &program->scheduler;
    if (!program->governor.empty()) governor = &program->governor;
    if (!program->admission.empty()) admission = &program->admission;
  }
  const auto& registry = runtime::PolicyRegistry::instance();
  TrialPolicies p;
  p.scheduler = registry.make_scheduler(*scheduler);
  p.scheduler->reset();
  p.governor =
      registry.make_governor_map(*governor, options.governor_overrides);
  p.governor->reset();
  p.admission = registry.make_admission(*admission);
  p.admission->reset();
  return p;
}

/// Shared trial-averaging shape of run_scenario / run_program: runs
/// `trials` raw runs with consecutive seeds, averages their scores and
/// summarizes the last. One RunScratch spans the loop — trial t+1 reuses
/// trial t's arenas (record stores, simulator event pool), recycled after
/// scoring.
template <typename RunOnce>
ScenarioOutcome run_trials(int trials, std::uint64_t base_seed,
                           const ScoreConfig& score, RunOnce&& run_once) {
  std::vector<ScenarioScore> trial_scores;
  trial_scores.reserve(static_cast<std::size_t>(trials));
  runtime::RunScratch scratch;
  ScenarioOutcome outcome;
  for (int t = 0; t < trials; ++t) {
    auto run = run_once(base_seed + static_cast<std::uint64_t>(t), &scratch);
    trial_scores.push_back(score_scenario(run, score));
    if (t == trials - 1) outcome.last = summarize_trial(run);
    scratch.recycle(std::move(run));
  }
  outcome.score = average_scores(trial_scores);
  outcome.trials = trials;
  return outcome;
}

}  // namespace

int trials_for(const workload::UsageScenario& scenario,
               const HarnessOptions& options) {
  return workload::is_dynamic_scenario(scenario)
             ? std::max(1, options.dynamic_trials)
             : 1;
}

int trials_for(const workload::ScenarioProgram& program,
               const HarnessOptions& options) {
  return workload::is_dynamic_program(program)
             ? std::max(1, options.dynamic_trials)
             : 1;
}

std::uint64_t last_trial_seed(const HarnessOptions& options, int trials) {
  return options.run.seed + static_cast<std::uint64_t>(trials - 1);
}

TrialSummary summarize_trial(const runtime::ScenarioRunResult& run) {
  TrialSummary summary;
  summary.resilience = run.resilience;
  summary.total_energy_mj = run.total_energy_mj;
  double total = 0.0;
  std::int64_t n = 0;
  for (const auto& stats : run.per_model) {
    const runtime::RecordStore& recs = stats.records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs.dropped()[i] != 0) continue;
      total += recs.latency_ms(i);
      ++n;
    }
  }
  summary.mean_latency_ms = n == 0 ? 0.0 : total / static_cast<double>(n);
  return summary;
}

runtime::ScenarioRunResult run_trial(const runtime::ScenarioRunner& runner,
                                     const workload::UsageScenario& scenario,
                                     const HarnessOptions& options,
                                     std::uint64_t seed,
                                     runtime::RunScratch* scratch,
                                     const runtime::ArrivalPlan* plan) {
  runtime::RunConfig cfg = options.run;
  cfg.seed = seed;
  auto p = make_policies(options, nullptr);
  return runner.run(scenario, *p.scheduler, cfg, p.governor.get(), scratch,
                    p.admission.get(), plan);
}

runtime::ScenarioRunResult run_trial(const runtime::ScenarioRunner& runner,
                                     const workload::ScenarioProgram& program,
                                     const HarnessOptions& options,
                                     std::uint64_t seed,
                                     runtime::RunScratch* scratch) {
  runtime::RunConfig cfg = options.run;
  cfg.seed = seed;
  auto p = make_policies(options, &program);
  return runner.run_program(program, *p.scheduler, cfg, p.governor.get(),
                            scratch, p.admission.get());
}

ScenarioOutcome Harness::run_scenario(
    const workload::UsageScenario& scenario) const {
  return run_trials(trials_for(scenario, options_), options_.run.seed,
                    options_.score,
                    [&](std::uint64_t seed, runtime::RunScratch* scratch) {
                      return run_once(scenario, seed, scratch);
                    });
}

ScenarioOutcome Harness::run_program(
    const workload::ScenarioProgram& program) const {
  return run_trials(trials_for(program, options_), options_.run.seed,
                    options_.score,
                    [&](std::uint64_t seed, runtime::RunScratch* scratch) {
                      return run_program_once(program, seed, scratch);
                    });
}

SuitePointScore Harness::run_suite() const {
  SuitePointScore outcome;
  outcome.accelerator_id = system_.id;
  outcome.total_pes = system_.total_pes();
  std::vector<ScenarioScore> scores;
  for (const auto& scenario : workload::benchmark_suite()) {
    auto sc = run_scenario(scenario);
    scores.push_back(std::move(sc.score));
    outcome.trials.push_back(sc.trials);
    outcome.last.push_back(sc.last);
  }
  outcome.score = combine_scenarios(std::move(scores));
  return outcome;
}

}  // namespace xrbench::core
