#include "runtime/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xrbench::runtime {
namespace {

bool context_ready(const DispatchContext& ctx) {
  return ctx.pending != nullptr && ctx.idle_sub_accels != nullptr &&
         ctx.costs != nullptr && !ctx.pending->empty() &&
         !ctx.idle_sub_accels->empty();
}

/// Canonical order-independent tie-break: earlier deadline, then earlier
/// request time, then lower frame, then lower task index. Returns true when
/// `a` should win over `b`. The pending vector is swap-remove-compacted
/// (see DispatchContext), so every policy must resolve ties through this
/// instead of relying on element order.
bool precedes(const InferenceRequest& a, const InferenceRequest& b) {
  if (a.tdl_ms != b.tdl_ms) return a.tdl_ms < b.tdl_ms;
  if (a.treq_ms != b.treq_ms) return a.treq_ms < b.treq_ms;
  if (a.frame != b.frame) return a.frame < b.frame;
  return models::task_index(a.task) < models::task_index(b.task);
}

/// Idle sub-accelerator minimizing expected latency for `task` (lowest
/// index wins ties; the idle list is always sorted ascending).
std::size_t best_idle_for(const DispatchContext& ctx, models::TaskId task) {
  const auto& idle = *ctx.idle_sub_accels;
  std::size_t best = idle.front();
  for (std::size_t sa : idle) {
    if (ctx.costs->latency_ms(task, sa) < ctx.costs->latency_ms(task, best)) {
      best = sa;
    }
  }
  return best;
}

/// Index of the pending request with the earliest deadline (canonical
/// tie-break).
std::size_t earliest_deadline(const std::vector<InferenceRequest>& pending) {
  std::size_t earliest = 0;
  for (std::size_t ri = 1; ri < pending.size(); ++ri) {
    if (precedes(pending[ri], pending[earliest])) earliest = ri;
  }
  return earliest;
}

}  // namespace

std::optional<Assignment> LatencyGreedyScheduler::pick(
    const DispatchContext& ctx) {
  if (!context_ready(ctx)) return std::nullopt;
  const auto& pending = *ctx.pending;
  double best_latency = std::numeric_limits<double>::infinity();
  Assignment best{};
  bool have = false;
  for (std::size_t ri = 0; ri < pending.size(); ++ri) {
    for (std::size_t sa : *ctx.idle_sub_accels) {
      const double lat = ctx.costs->latency_ms(pending[ri].task, sa);
      if (lat < best_latency ||
          (lat == best_latency && have &&
           precedes(pending[ri], pending[best.request_index]))) {
        best_latency = lat;
        best = Assignment{ri, sa};
        have = true;
      }
    }
  }
  return best;
}

std::optional<Assignment> RoundRobinScheduler::pick(
    const DispatchContext& ctx) {
  if (!context_ready(ctx)) return std::nullopt;
  const auto& pending = *ctx.pending;
  // Visit tasks starting from next_task_ and find the first with a pending
  // request; within a task pick the oldest frame.
  for (std::size_t off = 0; off < models::kNumTasks; ++off) {
    const std::size_t ti = (next_task_ + off) % models::kNumTasks;
    const models::TaskId task = models::all_tasks()[ti];
    std::optional<std::size_t> oldest;
    for (std::size_t ri = 0; ri < pending.size(); ++ri) {
      if (pending[ri].task != task) continue;
      if (!oldest) {
        oldest = ri;
        continue;
      }
      const InferenceRequest& cand = pending[ri];
      const InferenceRequest& cur = pending[*oldest];
      // Equal frames route through the canonical tie-break: the pending
      // vector is swap-remove-compacted, so "first in vector" would leak
      // incidental container order into the decision (see scheduler.h).
      if (cand.frame < cur.frame ||
          (cand.frame == cur.frame && precedes(cand, cur))) {
        oldest = ri;
      }
    }
    if (oldest) {
      next_task_ = (ti + 1) % models::kNumTasks;
      return Assignment{*oldest, best_idle_for(ctx, task)};
    }
  }
  return std::nullopt;
}

std::optional<Assignment> EdfScheduler::pick(const DispatchContext& ctx) {
  if (!context_ready(ctx)) return std::nullopt;
  const auto& pending = *ctx.pending;
  const std::size_t earliest = earliest_deadline(pending);
  return Assignment{earliest, best_idle_for(ctx, pending[earliest].task)};
}

std::optional<Assignment> SlackAwareScheduler::pick(
    const DispatchContext& ctx) {
  if (!context_ready(ctx)) return std::nullopt;
  const auto& pending = *ctx.pending;
  // Prefer the earliest-deadline request that can still meet its deadline
  // on some idle accelerator; fall back to plain EDF when none can.
  std::optional<std::size_t> best;
  for (std::size_t ri = 0; ri < pending.size(); ++ri) {
    const std::size_t sa = best_idle_for(ctx, pending[ri].task);
    const double finish =
        ctx.now_ms + ctx.costs->latency_ms(pending[ri].task, sa);
    if (finish > pending[ri].tdl_ms) continue;  // already doomed
    if (!best || precedes(pending[ri], pending[*best])) best = ri;
  }
  if (!best) best = earliest_deadline(pending);
  return Assignment{*best, best_idle_for(ctx, pending[*best].task)};
}

std::optional<Assignment> LeastLoadedScheduler::pick(
    const DispatchContext& ctx) {
  if (!context_ready(ctx)) return std::nullopt;
  const auto& pending = *ctx.pending;
  const std::size_t ri = earliest_deadline(pending);
  const models::TaskId task = pending[ri].task;
  // Lowest utilization EWMA wins; exact ties (cold telemetry, or no
  // telemetry in a hand-built context) fall back to the faster
  // sub-accelerator, then the lower index — every key is a pure function
  // of the context, so the placement is permutation- and order-invariant.
  const auto& idle = *ctx.idle_sub_accels;
  std::size_t best = idle.front();
  double best_load = ctx.telemetry ? ctx.telemetry->util_ewma(best) : 0.0;
  for (std::size_t sa : idle) {
    const double load = ctx.telemetry ? ctx.telemetry->util_ewma(sa) : 0.0;
    if (load < best_load ||
        (load == best_load &&
         ctx.costs->latency_ms(task, sa) < ctx.costs->latency_ms(task, best))) {
      best = sa;
      best_load = load;
    }
  }
  return Assignment{ri, best};
}

std::optional<Assignment> FaultAwareScheduler::pick(
    const DispatchContext& ctx) {
  if (!context_ready(ctx)) return std::nullopt;
  const auto& pending = *ctx.pending;
  const std::size_t ri = earliest_deadline(pending);
  const models::TaskId task = pending[ri].task;
  if (ctx.telemetry == nullptr) {
    return Assignment{ri, best_idle_for(ctx, task)};  // EDF degradation
  }
  // Abort counts saturate (a unit with many kills is bad, twice as many is
  // not twice as bad) and recency decays exponentially over ~a fault
  // window's timescale. last_abort_ms starts at -inf, so exp() yields an
  // exact 0.0 for never-aborted units — cold telemetry scores 0 risk and
  // the latency tie-break decides, matching least-loaded's cold behavior.
  constexpr double kAbortSaturation = 4.0;
  constexpr double kRecencyTauMs = 50.0;
  constexpr double kDomainWeight = 0.5;
  const Telemetry& tm = *ctx.telemetry;
  auto unit_risk = [&](std::size_t sa) {
    if (sa >= tm.num_sub_accels()) return 0.0;
    const auto& sub = tm.sub_accel(sa);
    const double count_term =
        static_cast<double>(sub.aborts) /
        (static_cast<double>(sub.aborts) + kAbortSaturation);
    const double recency =
        std::exp(-(ctx.now_ms - sub.last_abort_ms) / kRecencyTauMs);
    return count_term + recency;
  };
  auto domain_of = [&](std::size_t sa) -> int {
    if (ctx.system == nullptr) return -1;
    const auto& domains = ctx.system->fault_domains;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      for (std::size_t member : domains[d]) {
        if (member == sa) return static_cast<int>(d);
      }
    }
    return -1;
  };
  auto score = [&](std::size_t sa) {
    double s = tm.util_ewma(sa) + unit_risk(sa);
    const int d = domain_of(sa);
    if (d >= 0) {
      // Correlated-domain term: the worst sibling's risk, plus a flat
      // penalty while any sibling is down — its fault window may be the
      // domain's.
      double sibling_risk = 0.0;
      for (std::size_t member : ctx.system->fault_domains[d]) {
        if (member == sa) continue;
        sibling_risk = std::max(sibling_risk, unit_risk(member));
        if (ctx.offline != nullptr && member < ctx.offline->size() &&
            (*ctx.offline)[member] != 0) {
          sibling_risk = std::max(sibling_risk, 2.0);
        }
      }
      s += kDomainWeight * sibling_risk;
    }
    return s;
  };
  const auto& idle = *ctx.idle_sub_accels;
  std::size_t best = idle.front();
  double best_score = score(best);
  for (std::size_t sa : idle) {
    const double cand = score(sa);
    if (cand < best_score ||
        (cand == best_score &&
         ctx.costs->latency_ms(task, sa) < ctx.costs->latency_ms(task, best))) {
      best = sa;
      best_score = cand;
    }
  }
  return Assignment{ri, best};
}

}  // namespace xrbench::runtime
