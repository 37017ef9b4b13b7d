#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

#include "runtime/policy_registry.h"

namespace xrbench::core {

namespace {

/// Trials per batched task: trials / (threads * kChunksPerThread), floored
/// at 1. Small enough that every worker gets several chunks to steal (load
/// balance), large enough that a sub-millisecond trial stops paying one
/// queue round-trip per trial. Inline pools get one chunk — there is no
/// queue to amortize.
std::size_t trial_chunk(int trials, std::size_t threads) {
  constexpr std::size_t kChunksPerThread = 4;
  if (threads == 0) return static_cast<std::size_t>(std::max(1, trials));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(trials) / (threads * kChunksPerThread));
}

bool same_energy(const costmodel::EnergyParams& a,
                 const costmodel::EnergyParams& b) {
  return a.mac_pj == b.mac_pj && a.sram_pj_per_byte == b.sram_pj_per_byte &&
         a.noc_pj_per_byte == b.noc_pj_per_byte &&
         a.dram_pj_per_byte == b.dram_pj_per_byte &&
         a.static_mw_per_pe == b.static_mw_per_pe;
}

bool same_sub_accel(const costmodel::SubAccelConfig& a,
                    const costmodel::SubAccelConfig& b) {
  // transition_ms does not enter the CostTable, but grouping stays
  // conservative: a point with a different penalty is a different design.
  if (a.dataflow != b.dataflow || a.num_pes != b.num_pes ||
      a.clock_ghz != b.clock_ghz ||
      a.noc_bytes_per_cycle != b.noc_bytes_per_cycle ||
      a.offchip_bytes_per_cycle != b.offchip_bytes_per_cycle ||
      a.sram_bytes != b.sram_bytes ||
      a.dvfs.nominal_level != b.dvfs.nominal_level ||
      a.dvfs.transition_ms != b.dvfs.transition_ms ||
      a.dvfs.idle_mw != b.dvfs.idle_mw ||
      a.dvfs.levels.size() != b.dvfs.levels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.dvfs.levels.size(); ++i) {
    if (a.dvfs.levels[i].freq_ghz != b.dvfs.levels[i].freq_ghz ||
        a.dvfs.levels[i].voltage_v != b.dvfs.levels[i].voltage_v) {
      return false;
    }
  }
  return true;
}

/// True when two systems produce identical CostTables (everything the cost
/// model reads matches; ids/descriptions are ignored). The fault spec is
/// deliberately NOT compared: faults never enter the CostTable, and every
/// trial reads the fault profile from its own point's system, so points
/// that differ only in [faults] still share one table build.
bool same_system(const hw::AcceleratorSystem& a,
                 const hw::AcceleratorSystem& b) {
  if (a.sub_accels.size() != b.sub_accels.size()) return false;
  for (std::size_t i = 0; i < a.sub_accels.size(); ++i) {
    if (!same_sub_accel(a.sub_accels[i], b.sub_accels[i])) return false;
  }
  return true;
}

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

/// A pool job whose captures live in util::Task's inline buffer: every
/// sweep job captures one pointer to its call's shared state plus its own
/// indices, so enqueueing it allocates nothing.
template <typename F>
util::Task inline_job(F&& fn) {
  static_assert(util::Task::fits_inline<std::decay_t<F>>,
                "a sweep job's captures must fit util::Task's inline buffer");
  return util::Task(std::forward<F>(fn));
}

/// Per-(point, scenario) accumulation slots; every trial job writes only
/// its own pre-sized slot, so no synchronization beyond the pool's queue is
/// needed and reduction order equals submission order.
struct ScenarioWork {
  int trials = 1;
  std::vector<ScenarioScore> trial_scores;
  runtime::ScenarioRunResult last_run;
};

/// A suite scenario's slots: scores and the last trial's resilience
/// counters, never a run.
struct SuiteScenarioWork {
  int trials = 1;
  std::vector<ScenarioScore> trial_scores;
  runtime::ResilienceStats last_resilience;
};

/// Policy instances for one trial, resolved through the registry exactly
/// like Harness does: point options name the policies, a program's own
/// names (when set) win over the options'.
struct TrialPolicies {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::FrequencyGovernor> governor;
  std::unique_ptr<runtime::AdmissionController> admission;
};

TrialPolicies make_policies(const HarnessOptions& options,
                            const std::string& scheduler_override,
                            const std::string& governor_override,
                            const std::string& admission_override) {
  const auto& registry = runtime::PolicyRegistry::instance();
  TrialPolicies p;
  p.scheduler = registry.make_scheduler(
      scheduler_override.empty() ? options.scheduler : scheduler_override);
  p.scheduler->reset();
  p.governor = registry.make_governor_map(
      governor_override.empty() ? options.governor : governor_override,
      options.governor_overrides);
  p.governor->reset();
  p.admission = registry.make_admission(
      admission_override.empty() ? options.admission : admission_override);
  p.admission->reset();
  return p;
}

/// The trial loads of one sweep call: one slot per (load key, trial index).
/// The first trial that needs a slot plans it under std::call_once; every
/// other trial of that key and index reads the plan read-only. All adds
/// happen on the calling thread before any trial runs; the plans are freed
/// with this object when the call returns.
class SharedLoads {
 public:
  explicit SharedLoads(std::atomic<std::uint64_t>& planned)
      : planned_(&planned) {}

  /// Registers a point whose trials 0..trials-1 run `scenario` under `run`
  /// (at seed run.seed + trial) and returns its load id.
  std::size_t add(const workload::UsageScenario& scenario,
                  const runtime::RunConfig& run, int trials) {
    for (std::size_t id = 0; id < loads_.size(); ++id) {
      if (loads_[id].key.matches(scenario, run)) {
        loads_[id].trials = std::max(loads_[id].trials, trials);
        return id;
      }
    }
    loads_.push_back({runtime::load_key(scenario, run), trials, nullptr});
    return loads_.size() - 1;
  }

  /// Sizes every load's slots; call after the last add().
  void allocate() {
    for (auto& load : loads_) {
      load.slots =
          std::make_unique<Slot[]>(static_cast<std::size_t>(load.trials));
    }
  }

  /// The plan of `load` at `trial`, whose run config is `cfg`.
  const runtime::ArrivalPlan& plan(std::size_t load, int trial,
                                   const workload::UsageScenario& scenario,
                                   const runtime::RunConfig& cfg) {
    Slot& slot = loads_[load].slots[static_cast<std::size_t>(trial)];
    std::call_once(slot.once, [&] {
      slot.plan = runtime::plan_arrivals(scenario, cfg);
      planned_->fetch_add(1, std::memory_order_relaxed);
    });
    return slot.plan;
  }

 private:
  struct Slot {
    std::once_flag once;
    runtime::ArrivalPlan plan;
  };
  struct Load {
    runtime::LoadKey key;  ///< At the base seed (trial 0).
    int trials = 1;
    std::unique_ptr<Slot[]> slots;
  };
  std::vector<Load> loads_;
  std::atomic<std::uint64_t>* planned_;
};

/// One trial: fresh scheduler, shared read-only cost table, deterministic
/// seed = base seed + trial index, and the trial's shared load from
/// `loads`. Identical to Harness::run_once. The run's storage comes from
/// the worker's scratch arena when one is given; the caller scores the run
/// and then keeps or recycles it.
runtime::ScenarioRunResult run_trial(const hw::AcceleratorSystem& system,
                                     const runtime::CostTable& table,
                                     const workload::UsageScenario& scenario,
                                     const HarnessOptions& options, int trial,
                                     runtime::RunScratch* scratch,
                                     SharedLoads& loads, std::size_t load) {
  runtime::RunConfig cfg = options.run;
  cfg.seed += static_cast<std::uint64_t>(trial);
  const runtime::ArrivalPlan& plan = loads.plan(load, trial, scenario, cfg);
  auto policies = make_policies(options, "", "", "");
  const runtime::ScenarioRunner runner(system, table);
  return runner.run(scenario, *policies.scheduler, cfg,
                    policies.governor.get(), scratch,
                    policies.admission.get(), &plan);
}

/// One program trial — the run_program analogue, identical to
/// Harness::run_program_once at seed base + trial.
runtime::ScenarioRunResult run_program_trial(
    const hw::AcceleratorSystem& system, const runtime::CostTable& table,
    const workload::ScenarioProgram& program, const HarnessOptions& options,
    int trial, runtime::RunScratch* scratch) {
  runtime::RunConfig cfg = options.run;
  cfg.seed += static_cast<std::uint64_t>(trial);
  auto policies = make_policies(options, program.scheduler, program.governor,
                                program.admission);
  const runtime::ScenarioRunner runner(system, table);
  return runner.run_program(program, *policies.scheduler, cfg,
                            policies.governor.get(), scratch,
                            policies.admission.get());
}

/// Scores trial `trial` of a scenario or program point into `work`. The
/// last trial's run is kept for the outcome; every other run goes back to
/// the worker's arena.
void keep_trial(ScenarioWork& work, int trial, runtime::ScenarioRunResult&& run,
                const ScoreConfig& score, runtime::RunScratch* scratch) {
  work.trial_scores[static_cast<std::size_t>(trial)] =
      score_scenario(run, score);
  if (trial == work.trials - 1) {
    work.last_run = std::move(run);
  } else if (scratch != nullptr) {
    scratch->recycle(std::move(run));
  }
}

/// Scores trial `trial` of a suite scenario into `work`, copies the last
/// trial's resilience counters, and hands every run back to the worker's
/// arena.
void tally_trial(SuiteScenarioWork& work, int trial,
                 runtime::ScenarioRunResult&& run, const ScoreConfig& score,
                 runtime::RunScratch* scratch) {
  work.trial_scores[static_cast<std::size_t>(trial)] =
      score_scenario(run, score);
  if (trial == work.trials - 1) work.last_resilience = run.resilience;
  if (scratch != nullptr) scratch->recycle(std::move(run));
}

/// The trial-averaged score of a scenario's slots. A single trial's score
/// is its own average (average_scores returns a copy of it), so it moves.
ScenarioScore averaged(std::vector<ScenarioScore>& trial_scores) {
  return trial_scores.size() == 1 ? std::move(trial_scores.front())
                                  : average_scores(trial_scores);
}

/// Shared body of run_scenario_points / run_program_points: group points
/// that share a (system, energy) pair behind one CostTable build, chunk
/// each point's trials into batch tasks, reduce in submission order.
/// `build_table(system, energy)` builds a group's table and
/// `run_one(p, table, trial, work)` runs one trial of point `p`.
template <typename Point, typename BuildFn, typename TrialsFn, typename RunFn>
std::vector<ScenarioOutcome> run_grouped_points(
    util::ThreadPool& pool, const BuildFn& build_table,
    const std::vector<Point>& points, TrialsFn trials_of,
    const RunFn& run_one) {
  // Points that share an accelerator system and energy constants share one
  // CostTable build (governor/scenario sweeps like bench_ablation_dvfs vary
  // only the policy across many points of a single design).
  struct TableGroup {
    std::unique_ptr<runtime::CostTable> table;
    std::vector<std::size_t> members;  ///< Point indices, ascending.
  };
  // Everything the jobs read; each job captures a pointer to it.
  struct Call {
    util::ThreadPool& pool;
    const BuildFn& build_table;
    const std::vector<Point>& points;
    const RunFn& run_one;
    std::vector<ScenarioWork> work;
    std::vector<TableGroup> groups;
  } call{pool, build_table, points, run_one, {}, {}};

  call.work.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    validate_governor_overrides(points[p].options, points[p].system);
    auto& sw = call.work[p];
    sw.trials = trials_of(points[p]);
    sw.trial_scores.resize(static_cast<std::size_t>(sw.trials));
  }

  for (std::size_t p = 0; p < points.size(); ++p) {
    TableGroup* home = nullptr;
    for (auto& g : call.groups) {
      const std::size_t rep = g.members.front();
      if (same_system(points[rep].system, points[p].system) &&
          same_energy(points[rep].options.energy, points[p].options.energy)) {
        home = &g;
        break;
      }
    }
    if (home == nullptr) {
      call.groups.emplace_back();
      home = &call.groups.back();
    }
    home->members.push_back(p);
  }

  for (std::size_t gi = 0; gi < call.groups.size(); ++gi) {
    pool.submit(inline_job([c = &call, gi] {
      TableGroup& group = c->groups[gi];
      const auto& rep = c->points[group.members.front()];
      group.table = c->build_table(rep.system, rep.options.energy);
      std::vector<util::Task> batch;
      for (std::size_t p : group.members) {
        const int trials = c->work[p].trials;
        const auto chunk =
            static_cast<int>(trial_chunk(trials, c->pool.num_threads()));
        for (int t0 = 0; t0 < trials; t0 += chunk) {
          const int t1 = std::min(trials, t0 + chunk);
          batch.push_back(inline_job([c, gi, p, t0, t1] {
            for (int t = t0; t < t1; ++t) {
              c->run_one(p, *c->groups[gi].table, t, c->work[p]);
            }
          }));
        }
      }
      c->pool.submit_batch(std::move(batch));
    }));
  }
  pool.wait_idle();

  std::vector<ScenarioOutcome> outcomes(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    auto& sw = call.work[p];
    outcomes[p].score = averaged(sw.trial_scores);
    outcomes[p].last_run = std::move(sw.last_run);
    outcomes[p].trials = sw.trials;
  }
  return outcomes;
}

}  // namespace

SweepEngine::SweepEngine(std::size_t num_threads)
    : pool_(num_threads),
      scratch_(pool_.num_threads() + 1),
      table_scratch_(pool_.num_threads() + 1) {}

runtime::RunScratch* SweepEngine::worker_scratch() {
  const std::size_t slot = util::ThreadPool::current_worker_slot();
  return slot < scratch_.size() ? &scratch_[slot] : nullptr;
}

std::unique_ptr<runtime::CostTable> SweepEngine::build_table(
    const hw::AcceleratorSystem& system,
    const costmodel::AnalyticalCostModel& model) {
  const std::size_t slot = util::ThreadPool::current_worker_slot();
  return std::make_unique<runtime::CostTable>(
      system, model,
      slot < table_scratch_.size() ? &table_scratch_[slot] : nullptr);
}

SweepEngine::~SweepEngine() = default;

costmodel::AnalyticalCostModel& SweepEngine::model_for(
    const costmodel::EnergyParams& energy) {
  std::unique_lock lock(models_mutex_);
  for (auto& [params, model] : models_) {
    if (same_energy(params, energy)) return *model;
  }
  models_.emplace_back(
      energy, std::make_unique<costmodel::AnalyticalCostModel>(energy));
  return *models_.back().second;
}

std::vector<SuitePointScore> SweepEngine::run_suite_points(
    const std::vector<SweepPoint>& points) {
  // Touch lazily-initialized registries on this thread first; worker
  // threads then only read them.
  const auto& suite = workload::benchmark_suite();

  struct PointWork {
    std::unique_ptr<runtime::CostTable> table;
    std::vector<SuiteScenarioWork> scenarios;
    std::vector<std::size_t> loads;  ///< Load id per suite scenario.
  };
  // Everything the jobs read; each job captures a pointer to it.
  struct Call {
    SweepEngine& engine;
    const std::vector<SweepPoint>& points;
    const std::vector<workload::UsageScenario>& suite;
    SharedLoads loads;
    std::vector<PointWork> work;

    /// Runs trial `t` of point `p`'s suite scenario `s` into its slot.
    void trial(std::size_t p, std::size_t s, int t) {
      const SweepPoint& point = points[p];
      PointWork& pw = work[p];
      runtime::RunScratch* scratch = engine.worker_scratch();
      tally_trial(pw.scenarios[s], t,
                  run_trial(point.system, *pw.table, suite[s], point.options,
                            t, scratch, loads, pw.loads[s]),
                  point.options.score, scratch);
    }
  } call{*this, points, suite, SharedLoads(loads_planned_), {}};

  call.work.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    validate_governor_overrides(points[p].options, points[p].system);
    auto& pw = call.work[p];
    pw.scenarios.resize(suite.size());
    for (std::size_t s = 0; s < suite.size(); ++s) {
      auto& sw = pw.scenarios[s];
      sw.trials = trials_for(suite[s], points[p].options);
      sw.trial_scores.resize(static_cast<std::size_t>(sw.trials));
      pw.loads.push_back(
          call.loads.add(suite[s], points[p].options.run, sw.trials));
    }
  }
  call.loads.allocate();

  for (std::size_t p = 0; p < points.size(); ++p) {
    // One table-build job per point; it fans the point's trial jobs out as
    // soon as its cost table exists, so table builds and trials overlap
    // across points. Trials are chunked into batch tasks (see trial_chunk)
    // and enqueued with a single submit_batch — each trial still writes its
    // own submission-order slot, so chunking never changes a result.
    pool_.submit(inline_job([c = &call, p] {
      const SweepPoint& point = c->points[p];
      auto& pw = c->work[p];
      pw.table = c->engine.build_table(
          point.system, c->engine.model_for(point.options.energy));
      std::vector<util::Task> batch;
      for (std::size_t s = 0; s < c->suite.size(); ++s) {
        const int trials = pw.scenarios[s].trials;
        const auto chunk = static_cast<int>(
            trial_chunk(trials, c->engine.pool_.num_threads()));
        for (int t0 = 0; t0 < trials; t0 += chunk) {
          const int t1 = std::min(trials, t0 + chunk);
          batch.push_back(inline_job([c, p, s, t0, t1] {
            for (int t = t0; t < t1; ++t) c->trial(p, s, t);
          }));
        }
      }
      c->engine.pool_.submit_batch(std::move(batch));
    }));
  }
  pool_.wait_idle();

  // Assembled on the calling thread, in point order: each scenario's
  // averaged score is stored once, in score.scenarios.
  std::vector<SuitePointScore> outcomes(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    SuitePointScore& out = outcomes[p];
    out.accelerator_id = points[p].system.id;
    out.total_pes = points[p].system.total_pes();
    std::vector<ScenarioScore> scores;
    scores.reserve(suite.size());
    out.trials.reserve(suite.size());
    out.last_resilience.reserve(suite.size());
    for (auto& sw : call.work[p].scenarios) {
      scores.push_back(averaged(sw.trial_scores));
      out.trials.push_back(sw.trials);
      out.last_resilience.push_back(sw.last_resilience);
    }
    out.score = combine_scenarios(std::move(scores));
  }
  return outcomes;
}

std::vector<ScenarioOutcome> SweepEngine::run_scenario_points(
    const std::vector<ScenarioSweepPoint>& points) {
  const auto build = [this](const hw::AcceleratorSystem& system,
                            const costmodel::EnergyParams& energy) {
    return build_table(system, model_for(energy));
  };
  const auto trials_of = [](const ScenarioSweepPoint& p) {
    return trials_for(p.scenario, p.options);
  };
  SharedLoads loads(loads_planned_);
  std::vector<std::size_t> load_of;
  load_of.reserve(points.size());
  for (const auto& p : points) {
    load_of.push_back(loads.add(p.scenario, p.options.run, trials_of(p)));
  }
  loads.allocate();
  return run_grouped_points(
      pool_, build, points, trials_of,
      [this, &points, &loads, &load_of](std::size_t p,
                                        const runtime::CostTable& table, int t,
                                        ScenarioWork& w) {
        const ScenarioSweepPoint& point = points[p];
        runtime::RunScratch* scratch = worker_scratch();
        keep_trial(w, t,
                   run_trial(point.system, table, point.scenario,
                             point.options, t, scratch, loads, load_of[p]),
                   point.options.score, scratch);
      });
}

std::vector<ScenarioOutcome> SweepEngine::run_program_points(
    const std::vector<ProgramSweepPoint>& points) {
  // Touch the lazily-initialized registries on this thread first; worker
  // threads then only read them (the scenario registries are reached
  // through program phases, the policy registry through trial policies).
  workload::extension_programs();
  runtime::PolicyRegistry::instance();
  const auto build = [this](const hw::AcceleratorSystem& system,
                            const costmodel::EnergyParams& energy) {
    return build_table(system, model_for(energy));
  };
  return run_grouped_points(
      pool_, build, points,
      [](const ProgramSweepPoint& p) {
        return trials_for(p.program, p.options);
      },
      [this, &points](std::size_t p, const runtime::CostTable& table, int t,
                      ScenarioWork& w) {
        const ProgramSweepPoint& point = points[p];
        runtime::RunScratch* scratch = worker_scratch();
        keep_trial(w, t,
                   run_program_trial(point.system, table, point.program,
                                     point.options, t, scratch),
                   point.options.score, scratch);
      });
}

std::vector<std::unique_ptr<runtime::CostTable>> SweepEngine::build_cost_tables(
    const std::vector<hw::AcceleratorSystem>& systems,
    const costmodel::AnalyticalCostModel& cost_model) {
  std::vector<std::unique_ptr<runtime::CostTable>> tables(systems.size());
  std::vector<util::Task> batch;
  batch.reserve(systems.size());
  for (std::size_t i = 0; i < systems.size(); ++i) {
    batch.push_back(inline_job([this, &systems, &cost_model, &tables, i] {
      tables[i] = build_table(systems[i], cost_model);
    }));
  }
  pool_.submit_batch(std::move(batch));
  pool_.wait_idle();
  return tables;
}

std::uint64_t SweepEngine::loads_planned() const {
  return loads_planned_.load(std::memory_order_relaxed);
}

costmodel::MemoStats SweepEngine::model_memo_stats() const {
  costmodel::MemoStats total;
  std::unique_lock lock(models_mutex_);
  for (const auto& [params, model] : models_) {
    const auto s = model->model_memo_stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.entries += s.entries;
    total.prefix_builds += s.prefix_builds;
    total.graph_keys += s.graph_keys;
  }
  return total;
}

}  // namespace xrbench::core
