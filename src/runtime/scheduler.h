#pragma once

#include <cstddef>
#include <optional>

#include "runtime/dispatch_context.h"

namespace xrbench::runtime {

/// A scheduling decision: run ctx.pending[request_index] on sub-accelerator
/// `sub_accel` (which must be listed in ctx.idle_sub_accels).
struct Assignment {
  std::size_t request_index = 0;
  std::size_t sub_accel = 0;
};

/// Scheduling policy interface — the user-customizable component of the
/// harness (yellow box in Figure 2). The dispatcher calls pick() repeatedly
/// until it returns nullopt or runs out of idle hardware / pending work.
///
/// Policies receive the unified runtime::DispatchContext: pending work,
/// idle hardware, the per-level CostTable, the hardware view, and the
/// runtime Telemetry (history-aware scheduling). See dispatch_context.h for
/// the determinism contract — in short: internal state across one run is
/// fine (each sweep trial gets a fresh instance), but decisions must be
/// invariant under any permutation of ctx.pending.
///
/// Fault injection: under an active FaultPlan a sub-accelerator inside an
/// outage window is simply absent from ctx.idle_sub_accels, so schedulers
/// that pick only from the idle list (all built-ins) need no change.
/// Policies that reason about the whole system — e.g. deferring work for a
/// preferred-but-busy unit — should consult ctx.offline to distinguish
/// "busy, will come back shortly" from "down for the outage window" (see
/// the migration note in dispatch_context.h).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual const char* name() const = 0;

  /// Chooses one (request, sub-accelerator) pair, or nullopt to leave the
  /// remaining work queued. Must only return indices valid for `ctx`.
  virtual std::optional<Assignment> pick(const DispatchContext& ctx) = 0;

  /// Called once before a run so stateful policies can reset.
  virtual void reset() {}
};

/// Latency-greedy (the paper's default for cost-model/simulator runs):
/// among all (pending request, idle accelerator) pairs, dispatch the pair
/// with the minimal expected execution latency (appendix D.2).
class LatencyGreedyScheduler final : public Scheduler {
 public:
  const char* name() const override { return "latency-greedy"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override;
};

/// Round-robin (the paper's default for real-system runs): cycles through
/// models in task order, dispatching the oldest pending request of the next
/// active task to the fastest idle sub-accelerator.
class RoundRobinScheduler final : public Scheduler {
 public:
  const char* name() const override { return "round-robin"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override;
  void reset() override { next_task_ = 0; }

 private:
  std::size_t next_task_ = 0;
};

/// Earliest-deadline-first (an extension policy for scheduler ablations):
/// dispatch the pending request with the earliest deadline to the idle
/// sub-accelerator that runs it fastest.
class EdfScheduler final : public Scheduler {
 public:
  const char* name() const override { return "edf"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override;
};

/// Slack-aware policy (extension): like EDF but skips requests that cannot
/// meet their deadline on any idle accelerator when another request still
/// can (sacrifices already-doomed frames to protect feasible ones).
class SlackAwareScheduler final : public Scheduler {
 public:
  const char* name() const override { return "slack-aware"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override;
};

/// Load-aware policy (extension, telemetry-driven): picks the request by
/// the canonical earliest-deadline order, then places it on the idle
/// sub-accelerator with the LOWEST utilization EWMA — spreading sustained
/// load across the system instead of piling onto the historically-fastest
/// instance. Ties (exactly equal EWMAs, e.g. a cold start) fall back to the
/// faster sub-accelerator for the task, then the lower index; without
/// telemetry in the context it degrades to plain EDF placement.
class LeastLoadedScheduler final : public Scheduler {
 public:
  const char* name() const override { return "least-loaded"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override;
};

/// Fault-aware policy (extension, telemetry-driven): picks the request by
/// the canonical earliest-deadline order, then places it on the idle
/// sub-accelerator with the lowest fault-risk score — a sum of the
/// utilization EWMA (throttled units run slow and hot), a saturating
/// per-unit abort count, an exponentially-decaying abort-recency term (a
/// unit that killed work moments ago is likelier to still sit in a fault
/// window), and the same risk terms over the unit's correlated fault-domain
/// siblings (one member's kill history indicts the whole power/thermal
/// group; membership from ctx.system->fault_domains, live outages from
/// ctx.offline/ctx.domain_offline). Exact score ties fall back to the
/// faster sub-accelerator for the task, then the lower index. Every input
/// is a pure function of the context, so placements are permutation- and
/// worker-count-invariant; without telemetry it degrades to plain EDF.
class FaultAwareScheduler final : public Scheduler {
 public:
  const char* name() const override { return "fault-aware"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override;
};

}  // namespace xrbench::runtime
