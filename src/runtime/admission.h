#pragma once

#include "runtime/dispatch_context.h"

namespace xrbench::runtime {

/// Admission policy: consulted once per inference request at its arrival
/// instant (generator frames and fan-out children alike), before the
/// request enters the pending queue. Returning false drops the frame
/// immediately ("drop early"): no queueing, no dispatch, no energy — the
/// frame is recorded as dropped and counted in ResilienceStats.drops_early.
///
/// The context carries the request view (ctx.request, ctx.now_ms) plus the
/// shared cost/telemetry/system views; pending and idle_sub_accels are NOT
/// populated at admission time. The same determinism contract as schedulers
/// and governors applies: decisions may depend only on the context.
class AdmissionController {
 public:
  virtual ~AdmissionController() = default;
  virtual const char* name() const = 0;
  virtual bool admit(const DispatchContext& ctx) = 0;
  /// Clears adaptive state between runs (cf. FrequencyGovernor::reset).
  virtual void reset() {}
};

/// The default policy: every request is admitted. Behaviorally identical to
/// running without an admission controller at all.
class AdmitAllController final : public AdmissionController {
 public:
  const char* name() const override { return "admit-all"; }
  bool admit(const DispatchContext&) override { return true; }
};

/// Telemetry-driven predictive admission (the ROADMAP's streaming-QoS
/// drop-early item): reject a frame at request time when the task's
/// completion-latency EWMA — which spans queueing, retries and DVFS
/// stretch, not just execution — projects the deadline as unreachable:
///
///   now + latency_ewma(task) > deadline
///
/// Dropping early instead of late returns the frame's would-be queue
/// occupancy and energy to frames that can still make their deadlines. The
/// controller stays permissive until telemetry has at least one completed
/// sample for the task, so cold starts never reject.
class DropEarlyController final : public AdmissionController {
 public:
  const char* name() const override { return "drop-early"; }
  bool admit(const DispatchContext& ctx) override;
};

/// Fleet-level queueing admission (the fleet layer's staged-release queue;
/// see fleet::FleetSimulator). The fleet simulator consults it once per
/// SESSION at its arrival, with a synthetic request encoding the decision:
///
///   ctx.now_ms          predicted session start (arrival + predicted wait,
///                       from the current pool state and the queue ahead)
///   ctx.request->treq_ms  the session's arrival instant
///   ctx.request->tdl_ms   arrival + the session class's wait budget
///
/// Admit iff the predicted start makes the class's wait budget. Inside a
/// scenario run the same rule degenerates to admit-all (a request's
/// deadline is never before its arrival), so the controller is safe to
/// name anywhere an admission policy is accepted.
class FleetQueueController final : public AdmissionController {
 public:
  const char* name() const override { return "fleet-queue"; }
  bool admit(const DispatchContext& ctx) override {
    if (ctx.request == nullptr) return true;
    return ctx.now_ms <= ctx.request->tdl_ms;
  }
};

}  // namespace xrbench::runtime
