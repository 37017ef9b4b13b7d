#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>

namespace xrbench::core {

namespace {

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

/// A value built once, by the first thread that needs it; a thread that
/// needs it meanwhile waits for that one build, then reads it. A build
/// that throws is not retried: every reader rethrows its exception. (The
/// callable never throws out of std::call_once, whose exceptional path
/// hangs later callers under ThreadSanitizer's pthread_once.)
template <typename T>
class OnceSlot {
 public:
  template <typename Build>
  const T& get(Build&& build) {
    std::call_once(once_, [&] {
      try {
        value_ = build();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    if (error_) std::rethrow_exception(error_);
    return value_;
  }

 private:
  std::once_flag once_;
  T value_{};
  std::exception_ptr error_;
};

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
    return loads_[load].slots[static_cast<std::size_t>(trial)].get([&] {
      runtime::RunConfig cfg = run;
      cfg.seed += static_cast<std::uint64_t>(trial);
      runtime::ArrivalPlan plan = runtime::plan_arrivals(scenario, cfg);
      planned_->fetch_add(1, std::memory_order_relaxed);
      return plan;
    });
  }

 private:
  using Slot = OnceSlot<runtime::ArrivalPlan>;
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

std::unique_ptr<runtime::CostTable> SweepEngine::build_table(
    std::size_t worker, const hw::AcceleratorSystem& system,
    const costmodel::AnalyticalCostModel& model) {
  return std::make_unique<runtime::CostTable>(system, model,
                                              &table_scratch_[worker]);
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
  std::size_t first = 0;  ///< Its trial 0's place among the call's trials.
};

void SweepEngine::run_units(std::vector<Unit>& units) {
  SharedLoads loads(loads_planned_);
  // Units whose points share an accelerator system and energy constants
  // share one CostTable build (policy and cascade sweeps vary only the
  // policy or the scenario across many points of a single design). Each
  // group is built from its first unit's system and energy constants.
  std::vector<const Unit*> groups;
  std::size_t trials = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    Unit& unit = units[u];
    validate_governor_overrides(*unit.options, *unit.system);
    unit.trials = unit.program != nullptr
                      ? trials_for(*unit.program, *unit.options)
                      : trials_for(*unit.scenario, *unit.options);
    unit.trial_scores.resize(static_cast<std::size_t>(unit.trials));
    unit.first = trials;
    trials += static_cast<std::size_t>(unit.trials);
    if (unit.scenario != nullptr) {
      unit.load = loads.add(*unit.scenario, unit.options->run, unit.trials);
    }
    // A suite point's units are adjacent and share its system.
    if (u > 0 && units[u - 1].system == unit.system) {
      unit.group = units[u - 1].group;
      continue;
    }
    unit.group = 0;
    while (unit.group < groups.size() &&
           !(same_system(*groups[unit.group]->system, *unit.system) &&
             same_energy(groups[unit.group]->options->energy,
                         unit.options->energy))) {
      ++unit.group;
    }
    if (unit.group == groups.size()) groups.push_back(&unit);
  }
  loads.allocate();

  std::vector<OnceSlot<std::unique_ptr<runtime::CostTable>>> tables(
      groups.size());
  const auto table = [&](std::size_t worker, std::size_t g) -> auto& {
    return *tables[g].get([&] {
      return build_table(worker, *groups[g]->system,
                         model_for(groups[g]->options->energy));
    });
  };
  // One range: index g < G builds group g's table, and the rest run every
  // unit's trials in unit order. The cursor hands out every build before
  // any trial, so a trial waits, in its group's slot, only while that one
  // table is still being built.
  pool_.for_each(groups.size() + trials, [&](std::size_t worker,
                                             std::size_t i) {
    if (i < groups.size()) {
      table(worker, i);
      return;
    }
    i -= groups.size();
    Unit& unit = *std::prev(std::upper_bound(
        units.begin(), units.end(), i,
        [](std::size_t k, const Unit& u) { return k < u.first; }));
    const int t = static_cast<int>(i - unit.first);
    const runtime::ScenarioRunner runner(*unit.system,
                                         table(worker, unit.group));
    runtime::RunScratch& scratch = scratch_[worker];
    const std::uint64_t seed =
        unit.options->run.seed + static_cast<std::uint64_t>(t);
    auto run = unit.program != nullptr
                   ? run_trial(runner, *unit.program, *unit.options, seed,
                               &scratch)
                   : run_trial(runner, *unit.scenario, *unit.options, seed,
                               &scratch,
                               &loads.plan(unit.load, t, *unit.scenario,
                                           unit.options->run));
    unit.trial_scores[static_cast<std::size_t>(t)] =
        score_scenario(run, unit.options->score);
    if (t == unit.trials - 1) unit.last = summarize_trial(run);
    scratch.recycle(std::move(run));
  });
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
  pool_.for_each(systems.size(), [&](std::size_t worker, std::size_t i) {
    tables[i] = build_table(worker, systems[i], cost_model);
  });
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
