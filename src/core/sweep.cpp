#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

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

/// A pool job whose captures live in util::Task's inline buffer: every
/// sweep job captures one pointer to its call's shared state plus its own
/// indices, so enqueueing it allocates nothing.
template <typename F>
util::Task inline_job(F&& fn) {
  static_assert(util::Task::fits_inline<std::decay_t<F>>,
                "a sweep job's captures must fit util::Task's inline buffer");
  return util::Task(std::forward<F>(fn));
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

  /// The plan of `load` at `trial`: `scenario` under `run` at seed
  /// run.seed + trial.
  const runtime::ArrivalPlan& plan(std::size_t load, int trial,
                                   const workload::UsageScenario& scenario,
                                   const runtime::RunConfig& run) {
    Slot& slot = loads_[load].slots[static_cast<std::size_t>(trial)];
    std::call_once(slot.once, [&] {
      runtime::RunConfig cfg = run;
      cfg.seed += static_cast<std::uint64_t>(trial);
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

/// The trial-averaged score of a scenario's slots. A single trial's score
/// is its own average (average_scores returns a copy of it), so it moves.
ScenarioScore averaged(std::vector<ScenarioScore>& trial_scores) {
  return trial_scores.size() == 1 ? std::move(trial_scores.front())
                                  : average_scores(trial_scores);
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

/// One scenario or program whose trials a sweep call averages on one
/// point's design: a suite point gives one unit per suite scenario, a
/// scenario or program point gives one unit. Each trial writes only its
/// own slot, so no result depends on which worker ran it.
struct SweepEngine::Unit {
  const hw::AcceleratorSystem* system = nullptr;  ///< Its point's.
  const HarnessOptions* options = nullptr;        ///< Its point's.
  const workload::UsageScenario* scenario = nullptr;  ///< Or a program:
  const workload::ScenarioProgram* program = nullptr;
  int trials = 1;
  std::vector<ScenarioScore> trial_scores{};  ///< One slot per trial.
  TrialSummary last{};                        ///< Of trial trials - 1.
  std::size_t group = 0;  ///< Its table build.
  std::size_t load = 0;   ///< Its SharedLoads id; scenario units only.
};

void SweepEngine::run_units(std::vector<Unit>& units) {
  // Units whose points share an accelerator system and energy constants
  // share one CostTable build (policy and cascade sweeps vary only the
  // policy or the scenario across many points of a single design).
  struct TableGroup {
    std::unique_ptr<runtime::CostTable> table;
    std::vector<std::size_t> units;  ///< Ascending.
  };
  // Everything the jobs read; each job captures a pointer to it.
  struct Call {
    SweepEngine& engine;
    std::vector<Unit>& units;
    SharedLoads loads;
    std::vector<TableGroup> groups;

    /// Runs trial `t` of unit `u` into its slot, summarizes it when it is
    /// the unit's last, and hands the run back to the worker's arena.
    void trial(std::size_t u, int t) {
      Unit& unit = units[u];
      const runtime::ScenarioRunner runner(*unit.system,
                                           *groups[unit.group].table);
      runtime::RunScratch* scratch = engine.worker_scratch();
      const std::uint64_t seed =
          unit.options->run.seed + static_cast<std::uint64_t>(t);
      auto run = unit.program != nullptr
                     ? run_trial(runner, *unit.program, *unit.options, seed,
                                 scratch)
                     : run_trial(runner, *unit.scenario, *unit.options, seed,
                                 scratch,
                                 &loads.plan(unit.load, t, *unit.scenario,
                                             unit.options->run));
      unit.trial_scores[static_cast<std::size_t>(t)] =
          score_scenario(run, unit.options->score);
      if (t == unit.trials - 1) unit.last = summarize_trial(run);
      if (scratch != nullptr) scratch->recycle(std::move(run));
    }
  } call{*this, units, SharedLoads(loads_planned_), {}};

  for (std::size_t u = 0; u < units.size(); ++u) {
    Unit& unit = units[u];
    validate_governor_overrides(*unit.options, *unit.system);
    unit.trials = unit.program != nullptr
                      ? trials_for(*unit.program, *unit.options)
                      : trials_for(*unit.scenario, *unit.options);
    unit.trial_scores.resize(static_cast<std::size_t>(unit.trials));
    if (unit.scenario != nullptr) {
      unit.load = call.loads.add(*unit.scenario, unit.options->run,
                                 unit.trials);
    }
    // A suite point's units are adjacent and share its system.
    if (u > 0 && units[u - 1].system == unit.system) {
      unit.group = units[u - 1].group;
    } else {
      unit.group = 0;
      while (unit.group < call.groups.size()) {
        const Unit& rep = units[call.groups[unit.group].units.front()];
        if (same_system(*rep.system, *unit.system) &&
            same_energy(rep.options->energy, unit.options->energy)) {
          break;
        }
        ++unit.group;
      }
      if (unit.group == call.groups.size()) call.groups.emplace_back();
    }
    call.groups[unit.group].units.push_back(u);
  }
  call.loads.allocate();

  for (std::size_t g = 0; g < call.groups.size(); ++g) {
    // One table-build job per group; it fans the group's trial jobs out as
    // soon as its cost table exists, so table builds and trials overlap
    // across groups. Trials are chunked into batch tasks (see trial_chunk)
    // and enqueued with a single submit_batch — each trial still writes its
    // own slot, so chunking never changes a result.
    pool_.submit(inline_job([c = &call, g] {
      TableGroup& group = c->groups[g];
      const Unit& rep = c->units[group.units.front()];
      group.table = c->engine.build_table(
          *rep.system, c->engine.model_for(rep.options->energy));
      std::vector<util::Task> batch;
      for (std::size_t u : group.units) {
        const int trials = c->units[u].trials;
        const auto chunk = static_cast<int>(
            trial_chunk(trials, c->engine.pool_.num_threads()));
        for (int t0 = 0; t0 < trials; t0 += chunk) {
          const int t1 = std::min(trials, t0 + chunk);
          batch.push_back(inline_job([c, u, t0, t1] {
            for (int t = t0; t < t1; ++t) c->trial(u, t);
          }));
        }
      }
      c->engine.pool_.submit_batch(std::move(batch));
    }));
  }
  pool_.wait_idle();
}

std::vector<ScenarioOutcome> SweepEngine::outcomes_of(
    std::vector<Unit>& units) {
  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(units.size());
  for (Unit& unit : units) {
    outcomes.push_back({averaged(unit.trial_scores), unit.trials, unit.last});
  }
  return outcomes;
}

std::vector<SuitePointScore> SweepEngine::run_suite_points(
    const std::vector<SweepPoint>& points) {
  const auto& suite = workload::benchmark_suite();
  std::vector<Unit> units;
  units.reserve(points.size() * suite.size());
  for (const SweepPoint& point : points) {
    for (const auto& scenario : suite) {
      units.push_back({&point.system, &point.options, &scenario});
    }
  }
  run_units(units);

  // Assembled in point order: each scenario's averaged score is stored
  // once, in score.scenarios.
  std::vector<SuitePointScore> outcomes(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    SuitePointScore& out = outcomes[p];
    out.accelerator_id = points[p].system.id;
    out.total_pes = points[p].system.total_pes();
    std::vector<ScenarioScore> scores;
    scores.reserve(suite.size());
    out.trials.reserve(suite.size());
    out.last.reserve(suite.size());
    for (std::size_t s = 0; s < suite.size(); ++s) {
      Unit& unit = units[p * suite.size() + s];
      scores.push_back(averaged(unit.trial_scores));
      out.trials.push_back(unit.trials);
      out.last.push_back(unit.last);
    }
    out.score = combine_scenarios(std::move(scores));
  }
  return outcomes;
}

std::vector<ScenarioOutcome> SweepEngine::run_scenario_points(
    const std::vector<ScenarioSweepPoint>& points) {
  std::vector<Unit> units;
  units.reserve(points.size());
  for (const ScenarioSweepPoint& point : points) {
    units.push_back({&point.system, &point.options, &point.scenario});
  }
  run_units(units);
  return outcomes_of(units);
}

std::vector<ScenarioOutcome> SweepEngine::run_program_points(
    const std::vector<ProgramSweepPoint>& points) {
  // Touch the lazily-initialized scenario registries on this thread first;
  // worker threads then only read them through program phases.
  workload::extension_programs();
  std::vector<Unit> units;
  units.reserve(points.size());
  for (const ProgramSweepPoint& point : points) {
    units.push_back({&point.system, &point.options, nullptr, &point.program});
  }
  run_units(units);
  return outcomes_of(units);
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
