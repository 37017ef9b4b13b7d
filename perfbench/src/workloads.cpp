#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/aggregate.h"
#include "core/sweep.h"
#include "fleet/fleet_simulator.h"
#include "fleet/fleet_workload.h"
#include "runtime/cost_table.h"
#include "runtime/policy_registry.h"
#include "runtime/scenario_runner.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace perfbench {

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Digest::add(std::uint64_t v) {
  std::uint64_t z = h_ ^ (v + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  h_ = z ^ (z >> 31);
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add_score(double v) {
  if (!std::isfinite(v) || v < 0.0 || v > 1.0) in_range_ = false;
  add(v);
}

void ReplayCounts::add(const ReplayCounts& o) {
  run_inferences += o.run_inferences;
  program_inferences += o.program_inferences;
  dropped += o.dropped;
  records_scored += o.records_scored;
  builds += o.builds;
  sessions_offered += o.sessions_offered;
  sessions_admitted += o.sessions_admitted;
  inferences_per_run.insert(inferences_per_run.end(),
                            o.inferences_per_run.begin(),
                            o.inferences_per_run.end());
}

namespace {

using namespace xrbench;

constexpr std::size_t kCallInputs = 8;  ///< Seeds a run cycles through.

void add_count(Digest& d, std::int64_t v) {
  d.add(static_cast<std::uint64_t>(v));
}

void hash_scenario(Digest& d, const core::ScenarioScore& s) {
  add_count(d, static_cast<std::int64_t>(s.models.size()));
  for (const auto& m : s.models) {
    add_count(d, static_cast<std::int64_t>(models::task_index(m.task)));
    add_count(d, m.active ? 1 : 0);
    d.add_score(m.rt);
    d.add_score(m.energy);
    d.add_score(m.accuracy);
    d.add_score(m.per_model);
    d.add_score(m.qoe);
    d.add_score(m.combined);
    add_count(d, m.frames_expected);
    add_count(d, m.frames_executed);
    add_count(d, m.frames_dropped);
    add_count(d, m.deadline_misses);
  }
  d.add_score(s.realtime);
  d.add_score(s.energy);
  d.add_score(s.accuracy);
  d.add_score(s.qoe);
  d.add_score(s.overall);
  d.add(s.total_energy_mj);
  d.add(s.frame_drop_rate);
}

void hash_benchmark(Digest& d, const core::BenchmarkScore& b) {
  d.add_score(b.overall);
  d.add_score(b.realtime);
  d.add_score(b.energy);
  d.add_score(b.qoe);
  for (const auto& s : b.scenarios) hash_scenario(d, s);
}

void hash_session(Digest& d, const fleet::SessionOutcome& s) {
  add_count(d, static_cast<std::int64_t>(s.spec.session_id));
  d.add(s.spec.arrival_ms);
  add_count(d, static_cast<std::int64_t>(s.spec.program_rank));
  add_count(d, static_cast<std::int64_t>(s.spec.priority_class));
  d.add(s.spec.duration_ms);
  d.add(s.spec.seed);
  add_count(d, s.admitted ? 1 : 0);
  d.add(s.start_ms);
  d.add(s.wait_ms);
  add_count(d, static_cast<std::int64_t>(s.instance));
  hash_scenario(d, s.score);
  d.add_score(s.session_qoe);
  d.add(s.energy_mj);
  d.add(s.latency_ms);
  const auto& r = s.resilience;
  add_count(d, r.enabled ? 1 : 0);
  for (std::int64_t v : {r.transient_faults, r.retries, r.retry_give_ups,
                         r.outage_kills, r.failovers, r.throttle_clamps,
                         r.drops_early, r.drops_late, r.resumes}) {
    add_count(d, v);
  }
  d.add(r.checkpoint_saved_ms);
}

/// Fresh policy instances for one trial, named the way SweepEngine names
/// them: a program's own policy names win over the options'.
struct Policies {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::FrequencyGovernor> governor;
  std::unique_ptr<runtime::AdmissionController> admission;
};

Policies make_policies(const core::HarnessOptions& o,
                       const workload::ScenarioProgram* program) {
  const auto pick = [](const std::string& own, const std::string& fallback) {
    return own.empty() ? fallback : own;
  };
  const auto& registry = runtime::PolicyRegistry::instance();
  Policies p;
  p.scheduler = registry.make_scheduler(
      program ? pick(program->scheduler, o.scheduler) : o.scheduler);
  p.scheduler->reset();
  p.governor = registry.make_governor_map(
      program ? pick(program->governor, o.governor) : o.governor,
      o.governor_overrides);
  p.governor->reset();
  p.admission = registry.make_admission(
      program ? pick(program->admission, o.admission) : o.admission);
  p.admission->reset();
  return p;
}

void count_run(const runtime::ScenarioRunResult& run, bool program,
               ReplayCounts& c) {
  std::int64_t inferences = 0;
  for (const auto& m : run.per_model) {
    inferences += m.frames_executed + m.frames_dropped;
    c.dropped += m.frames_dropped;
  }
  (program ? c.program_inferences : c.run_inferences) += inferences;
  c.inferences_per_run.push_back(inferences);
}

core::ScenarioScore score_run(const runtime::ScenarioRunResult& run,
                              const core::HarnessOptions& o, Tracer* tracer,
                              ReplayCounts& c) {
  for (const auto& m : run.per_model) {
    c.records_scored += static_cast<std::int64_t>(m.records.size());
  }
  Scope span(tracer, "core.score");
  return core::score_scenario(run, o.score);
}

/// Dynamic scenarios average `dynamic_trials` trials at seeds seed+t; static
/// ones run once (SweepEngine's rule).
int trials_of(const workload::UsageScenario& s, const core::HarnessOptions& o) {
  return workload::is_dynamic_scenario(s) ? std::max(1, o.dynamic_trials) : 1;
}

/// Trials of one scenario on one runner, averaged — one sweep point.
core::ScenarioScore replay_point(const runtime::ScenarioRunner& runner,
                                 const workload::UsageScenario& scenario,
                                 const core::HarnessOptions& o,
                                 runtime::RunScratch& scratch, Tracer* tracer,
                                 ReplayCounts& c) {
  const int trials = trials_of(scenario, o);
  std::vector<core::ScenarioScore> scores;
  scores.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    runtime::RunConfig cfg = o.run;
    cfg.seed += static_cast<std::uint64_t>(t);
    auto policies = make_policies(o, nullptr);
    runtime::ScenarioRunResult run;
    {
      Scope span(tracer, "runtime.scenario_runner.run");
      run = runner.run(scenario, *policies.scheduler, cfg,
                       policies.governor.get(), &scratch,
                       policies.admission.get());
    }
    count_run(run, false, c);
    scores.push_back(score_run(run, o, tracer, c));
    scratch.recycle(std::move(run));
  }
  return core::average_scores(scores);
}

std::unique_ptr<runtime::CostTable> build_table(
    const hw::AcceleratorSystem& system,
    const costmodel::AnalyticalCostModel& model, Tracer* tracer,
    ReplayCounts& c) {
  ++c.builds;
  Scope span(tracer, "runtime.cost_table.build");
  return std::make_unique<runtime::CostTable>(system, model);
}

// ---- design_sweep ----------------------------------------------------------

/// The Table-5 family over a seed-drawn set of chip sizes, full Table-2
/// suite, one trial per dynamic scenario, 200 ms of simulated time. Every
/// call builds a fresh engine, so every cost table starts cold.
class DesignSweep final : public Workload {
 public:
  explicit DesignSweep(std::uint64_t seed) {
    // One chip size from each of nine strata of three 512-PE steps
    // (1024..14336 PEs), so every seed sweeps small to large chips and the
    // work per call barely depends on the seed.
    InputRng rng(seed);
    std::vector<std::int64_t> pes;
    for (std::int64_t stratum = 0; stratum < 9; ++stratum) {
      pes.push_back(1024 + 512 * (stratum * 3 + static_cast<std::int64_t>(
                                                   rng.below(3))));
    }

    core::HarnessOptions options;
    options.run.duration_ms = 200.0;
    options.run.seed = rng.next();
    options.dynamic_trials = 1;
    for (std::int64_t pe : pes) {
      for (char id : hw::accelerator_ids()) {
        points_.push_back(core::SweepPoint{
            std::string(1, id) + "@" + std::to_string(pe),
            hw::with_default_dvfs(hw::make_accelerator(id, pe)), options});
      }
    }
  }

  const char* name() const override { return "design_sweep"; }
  const char* unit() const override { return "design points"; }
  std::size_t num_inputs() const override { return 1; }

  CallOutput call(std::size_t, std::size_t threads) override {
    core::SweepEngine engine(threads);
    const auto outcomes = engine.run_suite_points(points_);
    Digest d;
    for (const auto& o : outcomes) hash_benchmark(d, o.score);
    return {d.value(), static_cast<std::int64_t>(points_.size()),
            d.in_range()};
  }

  CallOutput replay(std::size_t, Tracer* tracer,
                    ReplayCounts& c) override {
    // One fresh model per call, shared by every point, as in the engine.
    const costmodel::AnalyticalCostModel model(points_.front().options.energy);
    Digest d;
    for (const auto& p : points_) {
      const auto table = build_table(p.system, model, tracer, c);
      const runtime::ScenarioRunner runner(p.system, *table);
      std::vector<core::ScenarioScore> scores;
      for (const auto& scenario : workload::benchmark_suite()) {
        scores.push_back(
            replay_point(runner, scenario, p.options, scratch_, tracer, c));
      }
      hash_benchmark(d, core::combine_scenarios(std::move(scores)));
    }
    return {d.value(), static_cast<std::int64_t>(points_.size()),
            d.in_range()};
  }

  std::vector<hw::AcceleratorSystem> table_systems() const override {
    std::vector<hw::AcceleratorSystem> out;
    for (const auto& p : points_) out.push_back(p.system);
    return out;
  }

 private:
  std::vector<core::SweepPoint> points_;
  runtime::RunScratch scratch_;
};

// ---- trial_sweep -----------------------------------------------------------

/// One design (J @ 8192 PEs, default DVFS ladders) under every Table-2
/// scenario x 3 schedulers x 2 governors, 1000 ms, 30 dynamic trials, on one
/// long-lived engine; each call uses a fresh run seed.
class TrialSweep final : public Workload {
 public:
  explicit TrialSweep(std::uint64_t seed)
      : system_(hw::with_default_dvfs(hw::make_accelerator('J', 8192))) {
    InputRng rng(seed);
    core::HarnessOptions base;
    base.run.duration_ms = 1000.0;
    base.dynamic_trials = 30;
    for (std::size_t k = 0; k < kCallInputs; ++k) {
      base.run.seed = rng.next();
      std::vector<core::ScenarioSweepPoint> points;
      for (const auto& scenario : workload::benchmark_suite()) {
        for (const char* scheduler : {"latency-greedy", "edf", "least-loaded"}) {
          for (const char* governor : {"deadline-aware", "ondemand"}) {
            core::HarnessOptions o = base;
            o.scheduler = scheduler;
            o.governor = governor;
            points.push_back(core::ScenarioSweepPoint{
                scenario.name + "/" + scheduler + "/" + governor, system_, o,
                scenario});
          }
        }
      }
      inputs_.push_back(std::move(points));
    }
  }

  const char* name() const override { return "trial_sweep"; }
  const char* unit() const override { return "trials"; }
  std::size_t num_inputs() const override { return inputs_.size(); }

  CallOutput call(std::size_t input, std::size_t threads) override {
    auto& engine = engines_[threads];
    if (!engine) engine = std::make_unique<core::SweepEngine>(threads);
    const auto outcomes = engine->run_scenario_points(inputs_[input]);
    Digest d;
    std::int64_t trials = 0;
    for (const auto& o : outcomes) {
      hash_scenario(d, o.score);
      trials += o.trials;
    }
    return {d.value(), trials, d.in_range()};
  }

  CallOutput replay(std::size_t input, Tracer* tracer,
                    ReplayCounts& c) override {
    // The engine groups every point of this single design behind one
    // table build; its model stays warm across calls, like model_.
    const auto table = build_table(system_, model_, tracer, c);
    const runtime::ScenarioRunner runner(system_, *table);
    Digest d;
    std::int64_t trials = 0;
    for (const auto& p : inputs_[input]) {
      hash_scenario(d, replay_point(runner, p.scenario, p.options, scratch_,
                                    tracer, c));
      trials += trials_of(p.scenario, p.options);
    }
    return {d.value(), trials, d.in_range()};
  }

  std::vector<hw::AcceleratorSystem> table_systems() const override {
    return {system_};
  }

 private:
  hw::AcceleratorSystem system_;
  std::vector<std::vector<core::ScenarioSweepPoint>> inputs_;
  std::map<std::size_t, std::unique_ptr<core::SweepEngine>> engines_;
  costmodel::AnalyticalCostModel model_;
  runtime::RunScratch scratch_;
};

// ---- fleet_serve -----------------------------------------------------------

/// A fleet of M @ 8192 PE instances (default DVFS ladders) serving the
/// extension-program catalog: two priority classes, fleet-queue admission,
/// Poisson arrivals at ~1.2 offered Erlangs, transient faults with retries,
/// outages and checkpointing. Each call uses a fresh fleet seed.
class FleetServe final : public Workload {
 public:
  static constexpr std::size_t kPoolSize = 16;
  static constexpr double kWindowMs = 60000.0;
  static constexpr double kOfferedErlangs = 1.2;

  explicit FleetServe(std::uint64_t seed)
      : system_(hw::with_default_dvfs(hw::make_accelerator('M', 8192))) {
    base_.run.faults.transient_rate = 0.02;
    base_.run.faults.max_retries = 2;
    base_.run.faults.retry_backoff_ms = 1.0;
    base_.run.faults.outage_rate_per_s = 0.5;
    base_.run.faults.outage_ms = 20.0;
    base_.run.faults.checkpoint = true;
    base_.run.faults.checkpoint_overhead_ms = 0.2;

    config_.admission = "fleet-queue";
    config_.zipf_s = 1.0;
    config_.pool_size = kPoolSize;
    config_.arrival_window_ms = kWindowMs;
    config_.max_sessions = 100000;
    config_.classes = {{1.0, 200.0}, {3.0, 1000.0}};
    catalog_ = fleet::resolve_catalog(config_);
    // Arrival rate for the target load: Zipf-weighted mean session length.
    double weight = 0.0, weighted_ms = 0.0;
    for (std::size_t r = 0; r < catalog_.size(); ++r) {
      const double w = 1.0 / std::pow(static_cast<double>(r + 1),
                                      config_.zipf_s);
      weight += w;
      weighted_ms += w * catalog_[r].total_duration_ms();
    }
    config_.arrival_rate_per_s = kOfferedErlangs *
                                 static_cast<double>(kPoolSize) /
                                 (weighted_ms / weight / 1000.0);

    InputRng rng(seed);
    for (std::size_t k = 0; k < kCallInputs; ++k) seeds_.push_back(rng.next());
    inline_.resize(kCallInputs);
  }

  const char* name() const override { return "fleet_serve"; }
  const char* unit() const override { return "admitted sessions"; }
  std::size_t num_inputs() const override { return seeds_.size(); }

  CallOutput call(std::size_t input, std::size_t threads) override {
    auto& sim = sims_[threads];
    if (!sim) sim = std::make_unique<fleet::FleetSimulator>(threads);
    auto result = sim->run(config_for(input), catalog_, system_, base_);
    Digest d;
    for (const auto& s : result.sessions) hash_session(d, s);
    if (threads == 0) inline_[input] = std::move(result.sessions);
    return {d.value(), result.fleet.admitted, d.in_range()};
  }

  /// Replays the admission fates of an inline call (the admission queue is
  /// internal to FleetSimulator) and re-runs every admitted session through
  /// FleetWorkload::generate, CostTable and ScenarioRunner::run_program.
  CallOutput replay(std::size_t input, Tracer* tracer,
                    ReplayCounts& c) override {
    if (inline_[input].empty()) call(input, 0);
    const auto& fates = inline_[input];
    const auto config = config_for(input);
    std::vector<fleet::SessionSpec> specs;
    {
      Scope span(tracer, "fleet.generate");
      specs = fleet::FleetWorkload::generate(config, catalog_);
    }
    if (specs.size() != fates.size()) {
      throw std::runtime_error("fleet replay: session count differs");
    }
    const auto table = build_table(system_, model_, tracer, c);
    const runtime::ScenarioRunner runner(system_, *table);
    Digest d;
    std::int64_t admitted = 0;
    for (const auto& spec : specs) {
      fleet::SessionOutcome s;
      s.spec = spec;
      const auto& fate = fates[spec.session_id];
      if (fate.admitted) {
        ++admitted;
        s.admitted = true;
        s.start_ms = fate.start_ms;
        s.wait_ms = fate.wait_ms;
        s.instance = fate.instance;
        replay_session(runner, s, tracer, c);
      }
      hash_session(d, s);
    }
    c.sessions_offered += static_cast<std::int64_t>(specs.size());
    c.sessions_admitted += admitted;
    return {d.value(), admitted, d.in_range()};
  }

  std::vector<hw::AcceleratorSystem> table_systems() const override {
    return {system_};
  }

 private:
  fleet::FleetConfig config_for(std::size_t input) const {
    fleet::FleetConfig c = config_;
    c.seed = seeds_[input];
    return c;
  }

  /// One admitted session as FleetSimulator runs it: one program trial at
  /// the session seed, scored, then discounted by its queue wait.
  void replay_session(const runtime::ScenarioRunner& runner,
                      fleet::SessionOutcome& s, Tracer* tracer,
                      ReplayCounts& c) {
    const auto& program = catalog_[s.spec.program_rank];
    core::HarnessOptions o = base_;
    o.run.seed = s.spec.seed;
    auto policies = make_policies(o, &program);
    runtime::ScenarioRunResult run;
    {
      Scope span(tracer, "runtime.scenario_runner.run_program");
      run = runner.run_program(program, *policies.scheduler, o.run,
                               policies.governor.get(), &scratch_,
                               policies.admission.get());
    }
    count_run(run, true, c);
    s.score = core::average_scores({score_run(run, o, tracer, c)});
    s.energy_mj = s.score.total_energy_mj;
    s.session_qoe = s.score.qoe * (s.spec.duration_ms /
                                   (s.spec.duration_ms + s.wait_ms));
    double total = 0.0;
    std::int64_t executed = 0;
    for (const auto& m : run.per_model) {
      for (std::size_t i = 0; i < m.records.size(); ++i) {
        if (m.records.dropped()[i] != 0) continue;
        total += m.records.latency_ms(i);
        ++executed;
      }
    }
    s.latency_ms = s.wait_ms + (executed == 0 ? 0.0
                                              : total / static_cast<double>(
                                                            executed));
    s.resilience = run.resilience;
    scratch_.recycle(std::move(run));
  }

  hw::AcceleratorSystem system_;
  core::HarnessOptions base_;
  fleet::FleetConfig config_;
  std::vector<workload::ScenarioProgram> catalog_;
  std::vector<std::uint64_t> seeds_;
  std::map<std::size_t, std::unique_ptr<fleet::FleetSimulator>> sims_;
  /// Session fates of the latest inline call per input.
  std::vector<std::vector<fleet::SessionOutcome>> inline_;
  costmodel::AnalyticalCostModel model_;
  runtime::RunScratch scratch_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "design_sweep") return std::make_unique<DesignSweep>(seed);
  if (name == "trial_sweep") return std::make_unique<TrialSweep>(seed);
  if (name == "fleet_serve") return std::make_unique<FleetServe>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
