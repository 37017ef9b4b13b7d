#include "runtime/scenario_runner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "runtime/admission.h"
#include "runtime/dispatch_context.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/input_source.h"
#include "workload/unit_model.h"

namespace xrbench::runtime {

using workload::DependencyType;
using workload::InputSource;
using workload::ScenarioModel;
using workload::UsageScenario;

const ModelRunStats* ScenarioRunResult::find(models::TaskId task) const {
  for (const auto& m : per_model) {
    if (m.task == task) return &m;
  }
  return nullptr;
}

double ScenarioRunResult::utilization(std::size_t sa) const {
  if (sa >= telemetry.num_sub_accels() || duration_ms <= 0.0) return 0.0;
  return std::min(1.0, telemetry.sub_accel(sa).busy_ms / duration_ms);
}

ScenarioRunner::ScenarioRunner(const hw::AcceleratorSystem& system,
                               const CostTable& costs)
    : system_(&system), costs_(&costs) {
  if (system.sub_accels.size() != costs.num_sub_accels()) {
    throw std::invalid_argument(
        "ScenarioRunner: cost table does not match accelerator system");
  }
}

namespace {

/// Sensor frame consumed for model-rate frame index f (Figure-3 skipping:
/// a 30 FPS model on a 60 FPS camera uses every other frame).
std::int64_t sensor_frame_for(double sensor_fps, double model_fps,
                              std::int64_t f) {
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(f) * sensor_fps / model_fps));
}

/// Deadline of model-rate frame f: jitter-free arrival of the next consumed
/// sensor frame (Definition 8 at the model's consumption rate).
double deadline_ms(const InputSource& src, double model_fps, std::int64_t f) {
  const std::int64_t next = sensor_frame_for(src.fps, model_fps, f + 1);
  return workload::ideal_arrival_ms(src, next);
}

/// Full tie-break for timeline entries: two dispatches can share a start
/// time (distinct idle sub-accelerators at one event), and std::sort is not
/// stable — keying on start_ms alone would let equal-time entries permute
/// between runs or stdlib implementations.
bool timeline_less(const BusyInterval& a, const BusyInterval& b) {
  if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
  if (a.sub_accel != b.sub_accel) return a.sub_accel < b.sub_accel;
  if (a.task != b.task) {
    return models::task_index(a.task) < models::task_index(b.task);
  }
  return a.frame < b.frame;
}

/// Records a run of `scenario` for `duration_ms` predicts: the sum over its
/// models of target_fps x duration. Summed in double, so no duration can
/// overflow the count.
double predicted_records(const UsageScenario& scenario, double duration_ms) {
  double records = 0.0;
  for (const auto& sm : scenario.models) {
    records += sm.target_fps * duration_ms / 1000.0;
  }
  return records;
}

/// A model's frame budget over the run window: target_fps x duration,
/// rounded. The request count of a source model, the QoE denominator of a
/// source or data-dependent one, and the record reservation of each.
std::int64_t frame_budget(const ScenarioModel& sm, double duration_ms) {
  return static_cast<std::int64_t>(
      std::llround(sm.target_fps * duration_ms / 1000.0));
}

/// The preflight of run() and plan_arrivals(); `who` prefixes the messages.
void validate_run(const UsageScenario& scenario, const RunConfig& config,
                  const char* who) {
  if (config.duration_ms <= 0.0) {
    throw std::invalid_argument(std::string(who) + ": duration must be > 0");
  }
  for (const auto& sm : scenario.models) {
    const auto& src =
        workload::input_source(workload::driving_source(sm.task));
    if (sm.target_fps <= 0.0) {
      throw std::invalid_argument(std::string(who) + ": target FPS <= 0 for " +
                                  models::task_code(sm.task));
    }
    if (sm.target_fps > src.fps + 1e-9) {
      throw std::invalid_argument(
          std::string(who) + ": target FPS exceeds sensor rate for " +
          models::task_code(sm.task));
    }
  }
  // Shared with scenario_io::from_config_text: the parser rejects rate
  // mismatches at load time, this preflight catches programmatically-built
  // scenarios.
  workload::validate_dependency_rates(scenario);
  // Resource preflight: the storage a run reserves grows with the predicted
  // record count, so a run too large to hold is rejected before anything is
  // reserved.
  const double predicted = predicted_records(scenario, config.duration_ms);
  if (!(predicted <= static_cast<double>(ScenarioRunner::kMaxRunRecords))) {
    throw std::invalid_argument(
        std::string(who) + ": duration_ms = " +
        util::fmt_double_exact(config.duration_ms) + " predicts " +
        util::fmt_double(predicted, 0) + " records, above the bound of " +
        std::to_string(ScenarioRunner::kMaxRunRecords));
  }
}

/// Figure 2's load generator, the only one: fills `out` with every
/// source-model request of a run of `scenario` under `config`, sorted by
/// (when, order). Every source-model arrival time is known before the first
/// event fires, so the requests go into this array instead of the event
/// queue. Reads exactly what load_key() records.
void generate_arrivals(const UsageScenario& scenario, const RunConfig& config,
                       std::vector<Arrival>& out) {
  out.clear();
  std::int64_t total = 0;
  for (const auto& sm : scenario.models) {
    if (!sm.depends_on) total += frame_budget(sm, config.duration_ms);
  }
  out.reserve(static_cast<std::size_t>(total));
  for (const auto& sm : scenario.models) {
    // Dependent models' requests are created by upstream completions.
    if (sm.depends_on) continue;
    const auto& spec = workload::unit_model_spec(sm.task);
    const auto& driving = workload::input_source(spec.inputs.front());
    const std::int64_t num_frames = frame_budget(sm, config.duration_ms);
    for (std::int64_t f = 0; f < num_frames; ++f) {
      // Multi-modal models wait for the latest of their input streams.
      double treq = 0.0;
      for (const auto in : spec.inputs) {
        const auto& src = workload::input_source(in);
        const std::int64_t sf = sensor_frame_for(src.fps, sm.target_fps, f);
        treq = std::max(treq, workload::frame_arrival_ms(
                                  src, sf, config.seed, config.enable_jitter));
      }
      InferenceRequest req;
      req.task = sm.task;
      req.frame = f;
      req.treq_ms = treq;
      req.tdl_ms = deadline_ms(driving, sm.target_fps, f);
      // The clamp to the run start is the one Simulator::schedule_at applies.
      out.push_back({std::max(treq, 0.0), out.size(), req});
    }
  }
  // std::sort needs no temporary buffer (std::stable_sort would take one
  // per run); the explicit generation index makes the order total anyway.
  std::sort(out.begin(), out.end());
}

}  // namespace

std::vector<BusyInterval> ScenarioRunResult::timeline() const {
  std::vector<BusyInterval> spans = aborted;
  for (const auto& ms : per_model) {
    const RecordStore& r = ms.records;
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r.dropped()[i] != 0) continue;
      spans.push_back({r.sub_accel()[i], r.task()[i], r.frame()[i],
                       r.dispatch_ms()[i], r.complete_ms()[i]});
    }
  }
  std::sort(spans.begin(), spans.end(), timeline_less);
  return spans;
}

bool LoadKey::matches(const UsageScenario& scenario,
                      const RunConfig& config) const {
  if (duration_ms != config.duration_ms || seed != config.seed ||
      enable_jitter != config.enable_jitter) {
    return false;
  }
  std::size_t i = 0;
  for (const auto& sm : scenario.models) {
    if (sm.depends_on) continue;
    if (i == sources.size() || sources[i].task != sm.task ||
        sources[i].target_fps != sm.target_fps) {
      return false;
    }
    ++i;
  }
  return i == sources.size();
}

LoadKey load_key(const UsageScenario& scenario, const RunConfig& config) {
  LoadKey key;
  for (const auto& sm : scenario.models) {
    if (!sm.depends_on) key.sources.push_back({sm.task, sm.target_fps});
  }
  key.duration_ms = config.duration_ms;
  key.seed = config.seed;
  key.enable_jitter = config.enable_jitter;
  return key;
}

ArrivalPlan plan_arrivals(const UsageScenario& scenario,
                          const RunConfig& config) {
  validate_run(scenario, config, "plan_arrivals");
  ArrivalPlan plan;
  plan.key_ = load_key(scenario, config);
  generate_arrivals(scenario, config, plan.arrivals_);
  return plan;
}

/// Mutable state + dispatch machinery of one scenario run, owned by a
/// RunScratch so the runner itself stays const / reusable AND the buffers
/// survive across runs: begin_run() rewinds the simulator clock and
/// clear()s every vector in place, take_store() hands out recycled arenas
/// (RunScratch's comment lists what a warm run reuses and what it still
/// allocates). All per-model state lives in flat vectors
/// indexed by the model's slot in the scenario (looked up through a dense
/// task->slot table), and the pending queue uses swap-remove, so the
/// simulation hot path performs no hashing and no mid-vector erases.
struct RunScratch::Impl {
  // Per-run wiring (set by begin_run; non-owning).
  const CostTable* costs = nullptr;
  const hw::AcceleratorSystem* system = nullptr;
  Scheduler* scheduler = nullptr;
  FrequencyGovernor* governor = nullptr;  ///< May be null: nominal level.

  sim::Simulator sim;
  util::Rng rng;
  Telemetry telemetry;
  /// The run's load when the caller brought no ArrivalPlan: every
  /// source-model request, sorted by (when, order) before the event loop
  /// walks it.
  std::vector<Arrival> arrivals;
  std::vector<InferenceRequest> pending;
  std::vector<char> accel_busy;
  /// DVFS transition-latency penalty per sub-accelerator (0 = free level
  /// switches, the bit-identical default) and the level of the previous
  /// dispatch there (-1 before the first one).
  std::vector<double> transition_ms;
  std::vector<int> last_level;
  /// Idle-power accounting: the level each sub-accelerator is parked at,
  /// its idle power (W) there, and when it went idle. All three only
  /// matter when the hardware declares an idle-power term (has_idle_power);
  /// otherwise the accounting is skipped so default runs stay literally
  /// free and bit-identical.
  std::vector<std::size_t> park_level;
  std::vector<double> park_idle_w;
  std::vector<double> idle_since_ms;
  bool has_idle_power = false;
  /// Idle energy accrues only inside [0, duration]: the drain past the
  /// window belongs to the next phase's (or nobody's) accounting.
  double idle_account_end_ms = 0.0;
  // Per-model state, indexed by scenario slot.
  std::vector<ModelRunStats> stats;
  std::vector<std::vector<const ScenarioModel*>> fanout;
  std::vector<double> baseline_mj;  ///< Per-inference baseline share (mJ).
  std::array<int, models::kNumTasks> slot_of{};  // task index -> slot or -1
  std::vector<std::size_t> idle_scratch;
  double total_energy_mj = 0.0;
  // ---- Fault injection (inert on fault-free runs) -------------------------
  /// The materialized schedule for this run (empty plan when no fault class
  /// is enabled) and the per-run offline/throttle state over it.
  FaultPlan fault_plan;
  FaultInjector injector;
  AdmissionController* admission = nullptr;  ///< May be null: admit all.
  ResilienceStats resilience;
  /// Busy spans of transient-fault burns and outage kills: the dispatches
  /// that leave no record (ScenarioRunResult::aborted).
  std::vector<BusyInterval> aborted;
  /// In-flight completion handles per sub-accelerator, written only while
  /// the injector is active — an outage kill cancels the completion event.
  std::vector<sim::EventId> inflight_event;
  std::vector<InferenceRequest> inflight_req;
  std::vector<std::size_t> inflight_level;
  std::vector<double> inflight_start;
  /// Non-execution share of the in-flight latency (DVFS transition penalty
  /// + checkpoint restore overhead), charged before layer 0 runs. The
  /// outage-kill path subtracts it from the busy interval before walking
  /// the layer prefixes, so overhead time never counts as completed layers.
  std::vector<double> inflight_extra_ms;
  /// Best-case latency per model slot over every (unit, level): the retry
  /// feasibility bound (give up when even this cannot meet the deadline).
  std::vector<double> best_latency;
  // Recycled record stores (fed by RunScratch::recycle).
  std::vector<RecordStore> store_pool;

  Impl() { slot_of.fill(-1); }

  /// Rewinds every per-run field, keeping all allocated capacity.
  void begin_run(const hw::AcceleratorSystem& sys, const CostTable& c,
                 Scheduler& s, FrequencyGovernor* g, AdmissionController* adm,
                 const RunConfig& config) {
    costs = &c;
    system = &sys;
    scheduler = &s;
    governor = g;
    sim.reset();
    rng.reseed(config.seed);
    pending.clear();
    const std::size_t n = sys.sub_accels.size();
    accel_busy.assign(n, 0);
    last_level.assign(n, -1);
    transition_ms.resize(n);
    park_level.resize(n);
    park_idle_w.resize(n);
    idle_since_ms.assign(n, 0.0);
    has_idle_power = false;
    idle_account_end_ms = config.duration_ms;
    for (std::size_t sa = 0; sa < n; ++sa) {
      transition_ms[sa] = sys.sub_accels[sa].dvfs.transition_ms;
      // Hardware boots parked at the nominal operating point.
      park_level[sa] = c.nominal_level(sa);
      park_idle_w[sa] = c.idle_power_w(sa, park_level[sa]);
      if (sys.sub_accels[sa].dvfs.idle_mw != 0.0) has_idle_power = true;
    }
    telemetry.reset(n, config.duration_ms);
    // Fault wiring. Precedence: the run config's spec (when it enables a
    // fault class) over the hardware's own. A disabled spec builds no plan
    // and arms nothing — the dispatch hot path then only tests one bool.
    admission = adm;
    resilience = ResilienceStats{};
    aborted.clear();
    const FaultSpec& fspec =
        config.faults.enabled() ? config.faults : sys.faults;
    validate_fault_spec(fspec);
    fault_plan = fspec.enabled()
                     ? FaultPlan(fspec, config.seed, n, config.duration_ms,
                                 sys.fault_domains)
                     : FaultPlan{};
    injector.arm(&fault_plan, n);
    inflight_event.assign(n, 0);
    inflight_req.assign(n, InferenceRequest{});
    inflight_level.assign(n, 0);
    inflight_start.assign(n, 0.0);
    inflight_extra_ms.assign(n, 0.0);
    best_latency.clear();
    stats.clear();
    fanout.clear();
    baseline_mj.clear();
    slot_of.fill(-1);
    idle_scratch.clear();
    idle_scratch.reserve(n);
    total_energy_mj = 0.0;
  }

  /// A cleared record store with whatever capacity the pool retained.
  RecordStore take_store() {
    if (store_pool.empty()) return RecordStore{};
    RecordStore store = std::move(store_pool.back());
    store_pool.pop_back();
    store.clear();
    return store;
  }

  std::size_t slot(models::TaskId task) const {
    return static_cast<std::size_t>(slot_of[models::task_index(task)]);
  }

  /// Charges the idle window [idle_since, now] of `sa` at its parked
  /// level's idle power. No-op on hardware without an idle term, and on an
  /// empty-or-negative window (the end-of-run close passes the configured
  /// duration, which a draining completion may already have passed).
  void charge_idle(std::size_t sa, double now) {
    const double iw = park_idle_w[sa];
    if (iw == 0.0) return;
    const double dt = std::min(now, idle_account_end_ms) - idle_since_ms[sa];
    if (dt <= 0.0) return;
    const double mj = dt * iw;  // W * ms = mJ
    total_energy_mj += mj;
    telemetry.on_idle_energy(sa, mj);
  }

  /// Drops every pending request whose deadline has passed without a start.
  /// Swap-remove: pending order is not preserved (see the Scheduler
  /// contract in dispatch_context.h).
  void drop_stale(double now) {
    std::size_t i = 0;
    while (i < pending.size()) {
      if (pending[i].tdl_ms <= now) {
        auto& ms = stats[slot(pending[i].task)];
        ms.records.append_dropped(pending[i].task, pending[i].frame,
                                  pending[i].treq_ms, pending[i].tdl_ms);
        ++ms.frames_dropped;
        ++resilience.drops_late;
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }

  /// The views every policy consultation shares: the clock, the cost,
  /// telemetry and hardware views, and the fault plan's offline masks (null
  /// with no active plan). Each consultation adds only its own fields.
  DispatchContext shared_context(double now) const {
    DispatchContext ctx;
    ctx.now_ms = now;
    if (injector.active()) {
      ctx.offline = &injector.offline_mask();
      if (!injector.domain_offline_mask().empty()) {
        ctx.domain_offline = &injector.domain_offline_mask();
      }
    }
    ctx.costs = costs;
    ctx.telemetry = &telemetry;
    ctx.system = system;
    return ctx;
  }

  /// Routes a newly-created request through admission control (when
  /// configured) into the pending queue. Deliberately does NOT dispatch:
  /// call sites keep their existing dispatch cadence — the fan-out loop
  /// pushes all children before one try_dispatch so the scheduler sees
  /// them together — which is what keeps admission-free runs byte-identical
  /// to pre-admission builds.
  void arrive(const InferenceRequest& req) {
    if (admission != nullptr) {
      DispatchContext actx = shared_context(sim.now());
      actx.request = &req;
      if (!admission->admit(actx)) {
        // Drop-early: same record bytes as a stale-input drop, so scoring
        // and byte-identity checks treat both drop paths uniformly.
        auto& ms = stats[slot(req.task)];
        ms.records.append_dropped(req.task, req.frame, req.treq_ms,
                                  req.tdl_ms);
        ++ms.frames_dropped;
        ++resilience.drops_early;
        return;
      }
    }
    pending.push_back(req);
  }

  /// Parks `sa` for the coming idle window (governor consult; the default
  /// holds the level it just ran at) and re-arms idle-power accounting.
  void park_after(const InferenceRequest& req, std::size_t sa,
                  std::size_t level, double now) {
    std::size_t park = level;
    if (governor != nullptr) {
      DispatchContext pctx = shared_context(now);
      pctx.request = &req;
      pctx.sub_accel = sa;
      pctx.level = level;
      park = governor->park_level(pctx);
      if (park >= costs->num_levels(sa)) {
        throw std::logic_error("Governor returned an invalid park level");
      }
    }
    park_level[sa] = park;
    park_idle_w[sa] = has_idle_power ? costs->idle_power_w(sa, park) : 0.0;
    idle_since_ms[sa] = now;
    telemetry.on_park(sa, park);
  }

  /// True when `req` is executing from a layer checkpoint: an earlier
  /// attempt was killed mid-model and checkpointing is on, so this dispatch
  /// pays (and this attempt burns) only the remaining layers' cost.
  bool is_resumed(const InferenceRequest& req) const {
    return req.resume_layer > 0 && injector.active() &&
           fault_plan.spec().checkpoint;
  }

  void on_complete(const InferenceRequest& req, std::size_t sa,
                   std::size_t level, double start_ms) {
    const double now = sim.now();
    accel_busy[sa] = 0;

    const std::size_t sl = slot(req.task);
    auto& ms = stats[sl];
    const ExecutionCost& cost = costs->cost(req.task, sa, level);
    double accel_mj = cost.energy_mj;
    double static_mj = cost.static_energy_mj;
    const bool resumed = is_resumed(req);
    if (resumed) {
      // Only the layers actually re-run are charged; the completed prefix
      // was paid (pro-rated) when the earlier attempt was killed.
      const auto from = static_cast<std::size_t>(req.resume_layer);
      accel_mj -= costs->layer_energy_prefix_mj(req.task, sa, level, from);
      static_mj -= costs->layer_static_prefix_mj(req.task, sa, level, from);
    }
    const double energy_mj = accel_mj + baseline_mj[sl];
    total_energy_mj += energy_mj;
    ++ms.frames_executed;
    if (now > req.tdl_ms) ++ms.deadline_misses;
    ms.records.append_executed(req.task, req.frame, req.treq_ms, req.tdl_ms,
                               static_cast<int>(sa), static_cast<int>(level),
                               start_ms, now, energy_mj, resumed);
    // Accelerator energy split (the device baseline is system-level, not a
    // sub-accelerator term, so it stays out of the breakdown).
    telemetry.on_retire(sa, req, level, now, accel_mj - static_mj, static_mj);
    // Park the sub-accelerator for the coming idle window. The default
    // holds the executed level (the PMU keeps its operating point);
    // race-to-idle drops to the cheapest one.
    park_after(req, sa, level, now);

    // Trigger dependent models (dependency tracker).
    for (const ScenarioModel* down : fanout[sl]) {
      const bool fire = rng.bernoulli(down->trigger_probability);
      auto& dms = stats[slot(down->task)];
      if (down->dependency == DependencyType::kControl) {
        // QoE denominator counts only triggered requests for
        // control-dependent models.
        if (fire) ++dms.frames_expected;
      }
      if (!fire) continue;
      const auto& src =
          workload::input_source(workload::driving_source(down->task));
      InferenceRequest dreq;
      dreq.task = down->task;
      dreq.frame = req.frame;
      dreq.treq_ms = now;  // input = upstream output, ready now
      dreq.tdl_ms = deadline_ms(src, down->target_fps, req.frame);
      dreq.from_upstream = true;
      arrive(dreq);
    }
    try_dispatch();
  }

  /// Completion path of a transiently-faulted dispatch: the unit burned the
  /// full latency and energy but produced no frame. Retries with backoff
  /// while the budget lasts AND the deadline is still reachable at the
  /// task's best-case latency; otherwise the frame drops here.
  void on_fault(const InferenceRequest& req, std::size_t sa, std::size_t level,
                double start_ms) {
    const double now = sim.now();
    accel_busy[sa] = 0;
    const ExecutionCost& cost = costs->cost(req.task, sa, level);
    // Full accelerator burn of this attempt (a resumed attempt only ran the
    // remaining layers); no system-baseline share — the device baseline is
    // amortized per PRODUCED frame (on_complete), not per attempt.
    double burn_mj = cost.energy_mj;
    double burn_static_mj = cost.static_energy_mj;
    if (is_resumed(req)) {
      const auto from = static_cast<std::size_t>(req.resume_layer);
      burn_mj -= costs->layer_energy_prefix_mj(req.task, sa, level, from);
      burn_static_mj -= costs->layer_static_prefix_mj(req.task, sa, level, from);
    }
    total_energy_mj += burn_mj;
    aborted.push_back(
        BusyInterval{static_cast<int>(sa), req.task, req.frame, start_ms, now});
    telemetry.on_abort(sa, now, burn_mj - burn_static_mj, burn_static_mj);
    ++resilience.transient_faults;
    park_after(req, sa, level, now);

    const FaultSpec& spec = fault_plan.spec();
    const double t_retry = now + spec.retry_backoff_ms;
    const std::size_t sl = slot(req.task);
    if (req.attempt < spec.max_retries &&
        t_retry + best_latency[sl] <= req.tdl_ms) {
      ++resilience.retries;
      InferenceRequest retry = req;
      ++retry.attempt;  // fresh Bernoulli draw for the next try
      Impl* self = this;
      // Retries re-enter pending directly: the request was already admitted
      // at arrival, and admission is an arrival-time decision.
      sim.schedule_at(t_retry, [self, retry] {
        self->pending.push_back(retry);
        self->try_dispatch();
      });
    } else {
      auto& ms = stats[sl];
      ms.records.append_dropped(req.task, req.frame, req.treq_ms, req.tdl_ms);
      ++ms.frames_dropped;
      ++resilience.retry_give_ups;
      ++resilience.drops_late;
    }
    try_dispatch();
  }

  /// Outage window opens on `sa`: the unit goes offline (try_dispatch skips
  /// it) and any in-flight inference is killed — partial busy time and
  /// pro-rated energy are charged, the request re-queues for failover onto
  /// whatever healthy unit the scheduler picks.
  void on_outage_start(std::size_t sa) {
    injector.set_offline(sa, true);
    if (accel_busy[sa] != 0 && sim.cancel(inflight_event[sa])) {
      const double now = sim.now();
      const InferenceRequest req = inflight_req[sa];
      const std::size_t level = inflight_level[sa];
      const double start = inflight_start[sa];
      accel_busy[sa] = 0;
      const ExecutionCost& cost = costs->cost(req.task, sa, level);
      InferenceRequest requeued = req;
      if (fault_plan.spec().checkpoint) {
        // Layer-granular kill accounting: subtract the non-execution share
        // (transition penalty + restore overhead) from the busy interval,
        // walk the per-layer latency prefix to find the last layer that
        // fully finished, and record it as the re-dispatch's resume point.
        // Energy pro-rates over THIS attempt's remaining-layer cost.
        const auto from = static_cast<std::size_t>(req.resume_layer);
        const double exec_elapsed =
            std::max(0.0, (now - start) - inflight_extra_ms[sa]);
        const std::size_t done =
            costs->completed_layers(req.task, sa, level, from, exec_elapsed);
        const double attempt_lat =
            cost.latency_ms -
            costs->layer_latency_prefix_ms(req.task, sa, level, from);
        const double attempt_mj =
            cost.energy_mj -
            costs->layer_energy_prefix_mj(req.task, sa, level, from);
        const double attempt_static_mj =
            cost.static_energy_mj -
            costs->layer_static_prefix_mj(req.task, sa, level, from);
        double frac = attempt_lat > 0.0 ? exec_elapsed / attempt_lat : 1.0;
        frac = std::min(1.0, std::max(0.0, frac));
        total_energy_mj += frac * attempt_mj;
        telemetry.on_abort(sa, now, frac * (attempt_mj - attempt_static_mj),
                           frac * attempt_static_mj);
        requeued.resume_layer = static_cast<std::int32_t>(done);
      } else {
        // Pro-rate by elapsed fraction of the execution latency (the
        // scheduled completion may additionally carry a DVFS transition
        // penalty, so clamp to [0, 1]).
        double frac =
            cost.latency_ms > 0.0 ? (now - start) / cost.latency_ms : 1.0;
        frac = std::min(1.0, std::max(0.0, frac));
        total_energy_mj += frac * cost.energy_mj;
        telemetry.on_abort(sa, now,
                           frac * (cost.energy_mj - cost.static_energy_mj),
                           frac * cost.static_energy_mj);
      }
      if (now > start) {
        aborted.push_back(BusyInterval{static_cast<int>(sa), req.task,
                                       req.frame, start, now});
      }
      ++resilience.outage_kills;
      // The dead unit sits at its parked level; idle accounting restarts
      // at the kill instant (the busy window above consumed [start, now)).
      idle_since_ms[sa] = now;
      requeued.killed_on = static_cast<std::int32_t>(sa);
      pending.push_back(requeued);
      try_dispatch();  // a healthy idle unit may take the work right now
    }
  }

  void on_outage_end(std::size_t sa) {
    injector.set_offline(sa, false);
    try_dispatch();  // fresh capacity for whatever is pending
  }

  void try_dispatch() {
    drop_stale(sim.now());
    const bool faulted = injector.active();
    while (true) {
      auto& idle = idle_scratch;
      idle.clear();
      for (std::size_t sa = 0; sa < accel_busy.size(); ++sa) {
        // Offline units never enter the idle list, so schedulers that only
        // pick from it are fault-correct without any change.
        if (accel_busy[sa] == 0 && (!faulted || !injector.offline(sa))) {
          idle.push_back(sa);
        }
      }
      if (idle.empty() || pending.empty()) return;
      DispatchContext ctx = shared_context(sim.now());
      ctx.pending = &pending;
      ctx.idle_sub_accels = &idle;
      const auto choice = scheduler->pick(ctx);
      if (!choice) return;
      if (choice->request_index >= pending.size() ||
          choice->sub_accel >= accel_busy.size() ||
          accel_busy[choice->sub_accel] != 0 ||
          (faulted && injector.offline(choice->sub_accel))) {
        throw std::logic_error("Scheduler returned an invalid assignment");
      }
      InferenceRequest req = pending[choice->request_index];
      pending[choice->request_index] = pending.back();
      pending.pop_back();
      const std::size_t sa = choice->sub_accel;
      accel_busy[sa] = 1;
      const double start = sim.now();
      std::size_t level = costs->nominal_level(sa);
      if (governor != nullptr) {
        DispatchContext gctx = shared_context(start);
        gctx.request = &req;
        gctx.sub_accel = sa;
        level = governor->level_for(gctx);
        if (level >= costs->num_levels(sa)) {
          throw std::logic_error("Governor returned an invalid DVFS level");
        }
      }
      // Thermal throttle: inside a window the governor's choice is clamped
      // to the cap (after validation — the clamp result is always a valid
      // level because it only ever lowers the index).
      if (faulted) {
        if (const auto cap = injector.throttle_cap(sa, start)) {
          const std::size_t capped =
              std::min(*cap, costs->num_levels(sa) - 1);
          if (level > capped) {
            level = capped;
            ++resilience.throttle_clamps;
          }
        }
      }
      // Close the idle window that ends with this dispatch, then record
      // the dispatch — telemetry advances AFTER the policy consultations,
      // so decisions always see the pre-dispatch state.
      charge_idle(sa, start);
      telemetry.on_dispatch(sa, req, level, start, pending.size());
      double latency = costs->latency_ms(req.task, sa, level);
      double extra = 0.0;  ///< Non-execution share (overheads before layer 0).
      if (is_resumed(req)) {
        // Resume from the checkpoint: pay only the remaining layers plus
        // the restore overhead. The latency prefix at THIS (unit, level) is
        // the execution time the checkpoint saved here.
        const auto from = static_cast<std::size_t>(req.resume_layer);
        const double saved =
            costs->layer_latency_prefix_ms(req.task, sa, level, from);
        latency -= saved;
        latency += fault_plan.spec().checkpoint_overhead_ms;
        extra += fault_plan.spec().checkpoint_overhead_ms;
        ++resilience.resumes;
        resilience.checkpoint_saved_ms += saved;
      }
      // Consecutive dispatches at different levels pay the PMU's switch
      // cost before executing (PLL relock / voltage settle). The default
      // penalty of 0 adds nothing, keeping penalty-free runs bit-identical.
      if (transition_ms[sa] > 0.0 && last_level[sa] >= 0 &&
          last_level[sa] != static_cast<int>(level)) {
        latency += transition_ms[sa];
        extra += transition_ms[sa];
      }
      last_level[sa] = static_cast<int>(level);
      Impl* self = this;
      if (faulted) {
        // Failover accounting: a request an outage killed earlier is now
        // re-placed; landing on a different (healthy) unit is a failover.
        if (req.killed_on >= 0) {
          if (req.killed_on != static_cast<std::int32_t>(sa)) {
            ++resilience.failovers;
          }
          req.killed_on = -1;
        }
        // The fault decision is drawn here (it is a pure hash — placement
        // cannot change it), and the completion handle is kept so an
        // outage can kill this execution mid-flight.
        const bool fault =
            fault_plan.transient_fault(req.task, req.frame, req.attempt);
        const InferenceRequest creq = req;
        sim::EventId ev;
        if (fault) {
          ev = sim.schedule_after(latency, [self, creq, sa, level, start] {
            self->on_fault(creq, sa, level, start);
          });
        } else {
          ev = sim.schedule_after(latency, [self, creq, sa, level, start] {
            self->on_complete(creq, sa, level, start);
          });
        }
        inflight_event[sa] = ev;
        inflight_req[sa] = creq;
        inflight_level[sa] = level;
        inflight_start[sa] = start;
        inflight_extra_ms[sa] = extra;
      } else {
        sim.schedule_after(latency, [self, req, sa, level, start] {
          self->on_complete(req, sa, level, start);
        });
      }
    }
  }
};

RunScratch::RunScratch() : impl_(std::make_unique<Impl>()) {}
RunScratch::~RunScratch() = default;
RunScratch::RunScratch(RunScratch&&) noexcept = default;
RunScratch& RunScratch::operator=(RunScratch&&) noexcept = default;

void RunScratch::recycle(ScenarioRunResult&& result) {
  // Reverse order: take_store() pops from the back, so the next run's slot
  // 0 receives the store that served slot 0 last time. A stable
  // store-to-slot assignment keeps per-store capacities at their slot's
  // high-water mark instead of cycling (and regrowing) across slots.
  for (auto it = result.per_model.rbegin(); it != result.per_model.rend();
       ++it) {
    it->records.clear();
    impl_->store_pool.push_back(std::move(it->records));
  }
  result.per_model.clear();
}

std::size_t RunScratch::pooled_stores() const {
  return impl_->store_pool.size();
}

std::size_t RunScratch::pooled_record_capacity() const {
  std::size_t total = 0;
  for (const auto& store : impl_->store_pool) total += store.capacity();
  return total;
}

ScenarioRunResult ScenarioRunner::run(const UsageScenario& scenario,
                                      Scheduler& scheduler,
                                      const RunConfig& config,
                                      FrequencyGovernor* governor,
                                      RunScratch* scratch,
                                      AdmissionController* admission,
                                      const ArrivalPlan* plan) const {
  validate_run(scenario, config, "ScenarioRunner::run");
  if (plan != nullptr && !plan->key().matches(scenario, config)) {
    throw std::invalid_argument(
        "ScenarioRunner::run: the arrival plan is for another load (its "
        "source models, duration, seed or jitter flag differ)");
  }

  // The fallback arena is constructed only when the caller brought none —
  // sweep trials and program phases always do, and an eager local would
  // pay one Impl heap allocation per run for nothing.
  std::optional<RunScratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  RunScratch::Impl& eng = *scratch->impl_;
  eng.begin_run(*system_, *costs_, scheduler, governor, admission, config);

  const std::size_t num_models = scenario.models.size();
  eng.stats.resize(num_models);
  eng.fanout.resize(num_models);
  eng.baseline_mj.resize(num_models);
  std::int64_t total_expected = 0;
  for (std::size_t sl = 0; sl < num_models; ++sl) {
    const auto& sm = scenario.models[sl];
    eng.slot_of[models::task_index(sm.task)] = static_cast<int>(sl);
    eng.stats[sl].task = sm.task;
    eng.stats[sl].target_fps = sm.target_fps;
    eng.stats[sl].records = eng.take_store();
    // mW-free form: W * ms = mJ; the frame window is 1000/FPS ms.
    eng.baseline_mj[sl] = config.system_baseline_w * 1000.0 / sm.target_fps;
  }
  for (const auto& sm : scenario.models) {
    if (!sm.depends_on) continue;
    // An upstream task absent from the scenario can never complete, so the
    // dependent model is simply never triggered (matching the behavior of
    // the former map-keyed fanout; its QoE denominator still counts for
    // data dependencies).
    const int up = eng.slot_of[models::task_index(*sm.depends_on)];
    if (up >= 0) eng.fanout[static_cast<std::size_t>(up)].push_back(&sm);
  }
  // Reserve record storage up front: each model sees at most its
  // frame budget (plus upstream-triggered requests bounded by the same
  // rate), so the hot loop never reallocates.
  for (std::size_t sl = 0; sl < num_models; ++sl) {
    const auto& sm = scenario.models[sl];
    const std::int64_t budget = frame_budget(sm, config.duration_ms);
    eng.stats[sl].records.reserve(static_cast<std::size_t>(budget) + 8);
    total_expected += budget;
    // NumFrm: one request per frame for source models, one per upstream
    // target frame for data-dependent ones. Control-dependent models count
    // their triggered requests as they fire.
    if (!sm.depends_on || sm.dependency == DependencyType::kData) {
      eng.stats[sl].frames_expected = budget;
    }
  }
  eng.pending.reserve(static_cast<std::size_t>(total_expected) + 8);

  // ---- Load generation (Figure 2's load generator) ---------------------
  if (plan == nullptr) generate_arrivals(scenario, config, eng.arrivals);
  const std::vector<Arrival>& arrivals =
      plan != nullptr ? plan->arrivals() : eng.arrivals;

  // ---- Fault schedule (precomputed; worker count cannot reorder it) -----
  if (eng.injector.active()) {
    // Best-case latency per slot bounds the retry feasibility check: a
    // retry whose backoff-deferred start plus this bound already misses the
    // deadline is given up immediately instead of burning another attempt.
    eng.best_latency.assign(num_models,
                            std::numeric_limits<double>::infinity());
    for (std::size_t sl = 0; sl < num_models; ++sl) {
      const auto task = scenario.models[sl].task;
      for (std::size_t sa = 0; sa < system_->sub_accels.size(); ++sa) {
        for (std::size_t lv = 0; lv < costs_->num_levels(sa); ++lv) {
          eng.best_latency[sl] =
              std::min(eng.best_latency[sl], costs_->latency_ms(task, sa, lv));
        }
      }
    }
    // Outage windows become simulator events. At an exactly shared
    // timestamp the arrival is processed first (the event loop below
    // handles an arrival before any event at its time) — a fixed,
    // documented order that no worker count can perturb. Throttle windows
    // need no events: the dispatcher samples them via
    // FaultInjector::throttle_cap.
    RunScratch::Impl* self = &eng;
    for (std::size_t sa = 0; sa < system_->sub_accels.size(); ++sa) {
      for (const auto& w : eng.fault_plan.outages(sa)) {
        if (w.start_ms >= config.duration_ms) break;
        eng.sim.schedule_at(w.start_ms,
                            [self, sa] { self->on_outage_start(sa); });
        eng.sim.schedule_at(w.end_ms, [self, sa] { self->on_outage_end(sa); });
      }
    }
  }

  // ---- Event loop -------------------------------------------------------
  // The queue holds only what the run creates: completions, retries and
  // outage windows (on a fault-free run, at most one completion per
  // sub-accelerator). Before each arrival, every event strictly earlier
  // fires; events at the arrival's own time fire after it, and equal-time
  // arrivals keep generation order — the order the queue's FIFO tie-break
  // would give had every arrival been scheduled ahead of all other events.
  for (const auto& a : arrivals) {
    eng.sim.run_before(a.when);
    eng.arrive(a.req);
    eng.try_dispatch();
  }
  eng.sim.run();
  // Anything still pending after the event queue drained can never start.
  eng.drop_stale(std::numeric_limits<double>::infinity());
  // Close the trailing idle windows at the CONFIGURED duration, not the
  // drained clock: a completion may drain past the window (its busy time
  // legitimately spills over, as it always has), but idle time past the
  // window belongs to whatever comes next — a program's following phase
  // accounts it itself, so charging it here would double-count session
  // wall-clock. Sub-accelerators whose last event already passed the
  // duration get no trailing idle (charge_idle and Telemetry::advance both
  // ignore non-positive windows).
  if (eng.has_idle_power) {
    for (std::size_t sa = 0; sa < system_->sub_accels.size(); ++sa) {
      eng.charge_idle(sa, config.duration_ms);
    }
  }
  eng.telemetry.finish(config.duration_ms);

  // ---- Result assembly --------------------------------------------------
  ScenarioRunResult result;
  result.scenario_name = scenario.name;
  result.duration_ms = config.duration_ms;
  result.total_energy_mj = eng.total_energy_mj;
  result.aborted = eng.aborted;  // a copy, so the scratch keeps the capacity
  result.telemetry = eng.telemetry;
  result.resilience = eng.resilience;
  // An inactive injector with zero drop-early rejections leaves the section
  // disabled, so admit-all (or null) admission never changes output bytes.
  result.resilience.enabled =
      eng.injector.active() || eng.resilience.drops_early > 0;
  result.per_model.reserve(num_models);
  for (auto& ms : eng.stats) {
    // A frame index can repeat within one model's records, so the
    // canonical order breaks ties on the remaining attributes (the
    // comparator lives with the SoA store's permutation sort).
    ms.records.sort_canonical();
    result.per_model.push_back(std::move(ms));
  }
  return result;
}

ScenarioRunResult ScenarioRunner::run_program(
    const workload::ScenarioProgram& program, Scheduler& scheduler,
    const RunConfig& config, FrequencyGovernor* governor, RunScratch* scratch,
    AdmissionController* admission) const {
  workload::validate_program(program);
  // The session keeps every phase's records, so the record bound holds for
  // the whole program, checked before any phase runs.
  double predicted = 0.0;
  for (const auto& phase : program.phases) {
    predicted += predicted_records(phase.scenario, phase.duration_ms);
  }
  if (!(predicted <= static_cast<double>(kMaxRunRecords))) {
    throw std::invalid_argument(
        "ScenarioRunner::run_program: the " +
        std::to_string(program.phases.size()) + " phases of program '" +
        program.name + "' predict " + util::fmt_double(predicted, 0) +
        " records, above the bound of " + std::to_string(kMaxRunRecords));
  }

  // Program-level fault profile (when enabled) overrides the run config's
  // for every phase; the hardware spec stays the final fallback inside
  // begin_run. Resolved once so all phases see the same precedence.
  RunConfig base = config;
  if (program.faults.enabled()) base.faults = program.faults;

  // Reuse one arena across phases even when the caller brought none (built
  // lazily: sweep trials always pass one).
  std::optional<RunScratch> local;
  RunScratch* arena = scratch != nullptr ? scratch : &local.emplace();

  ScenarioRunResult out;
  out.scenario_name = program.name;
  out.telemetry.reset(system_->sub_accels.size());
  out.phase_start_ms.reserve(program.phases.size());
  // Task -> slot in out.per_model; models merge by task across phases in
  // first-seen (phase, slot) order, so a single-phase program's per_model
  // layout is exactly the phase run's.
  std::array<int, models::kNumTasks> merged_slot{};
  merged_slot.fill(-1);

  // Seed offsets are strided far apart (golden-ratio odd constant) so the
  // consecutive trial seeds of a multi-trial average (base, base+1, ...)
  // can never land on another trial's phase seed — small additive offsets
  // would make trial t's phase at offset o replay trial t+o's phase at
  // offset 0, silently correlating "independent" trials. Offset 0 keeps
  // the seed untouched (the single-phase bit-identity anchor).
  constexpr std::uint64_t kPhaseSeedStride = 0x9E3779B97F4A7C15ull;

  double phase_start = 0.0;
  for (const auto& phase : program.phases) {
    RunConfig phase_config = base;
    phase_config.duration_ms = phase.duration_ms;
    phase_config.seed = config.seed + phase.seed_offset * kPhaseSeedStride;
    // Each phase boundary retires in-flight work deterministically: run()
    // drains every scheduled completion and drops whatever can no longer
    // start — the same rule the end of a plain run applies — before the
    // next phase's model set takes over on freshly idle hardware.
    ScenarioRunResult phase_run = run(phase.scenario, scheduler, phase_config,
                                      governor, arena, admission);

    out.phase_start_ms.push_back(phase_start);
    out.total_energy_mj += phase_run.total_energy_mj;
    for (BusyInterval iv : phase_run.aborted) {
      iv.start_ms += phase_start;
      iv.end_ms += phase_start;
      out.aborted.push_back(iv);
    }
    for (auto& ms : phase_run.per_model) {
      int& slot = merged_slot[models::task_index(ms.task)];
      if (slot < 0) {
        slot = static_cast<int>(out.per_model.size());
        ModelRunStats fresh;
        fresh.task = ms.task;
        // Session stores come from the arena too: a trial loop recycles
        // the merged result, and reusing its stores here is what keeps the
        // pool at its high-water mark instead of growing by one result per
        // trial.
        fresh.records = arena->impl_->take_store();
        out.per_model.push_back(std::move(fresh));
      }
      auto& agg = out.per_model[static_cast<std::size_t>(slot)];
      // A task's rate can change across phases; the last active phase's
      // rate is kept (report-time metadata only — scoring reads records).
      agg.target_fps = ms.target_fps;
      agg.frames_expected += ms.frames_expected;
      agg.frames_executed += ms.frames_executed;
      agg.frames_dropped += ms.frames_dropped;
      agg.deadline_misses += ms.deadline_misses;
      agg.records.append_shifted(ms.records, phase_start);
    }
    // Additive telemetry accumulates, windowed telemetry carries the
    // freshest phase (see Telemetry::merge_from).
    out.telemetry.merge_from(phase_run.telemetry, phase_start);
    out.resilience.merge(phase_run.resilience);
    phase_start += phase.duration_ms;
    // The phase's record stores go back to the pool for the next phase
    // (their contents were copied onto the session timeline above).
    arena->recycle(std::move(phase_run));
  }
  out.duration_ms = phase_start;

  // Re-establish the canonical record order over the merged session:
  // per-model frame indices restart at every phase boundary, so plain
  // concatenation is not sorted. The sort is a deterministic total order —
  // for a single-phase program it is a no-op on the already-canonical
  // phase result (the bit-identity anchor).
  for (auto& ms : out.per_model) ms.records.sort_canonical();
  // Merging grew the session's stores by doubling, which can leave up to
  // half of each unused, and a fleet holds every session's result until
  // its call ends: trim them once, a linear copy.
  if (program.phases.size() > 1) {
    for (auto& ms : out.per_model) ms.records.shrink_to_fit();
  }
  return out;
}

}  // namespace xrbench::runtime
