#include "runtime/telemetry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xrbench::runtime {

void Telemetry::reset(std::size_t num_sub_accels, double window_end_ms) {
  window_end_ms_ = window_end_ms;
  // Shrink-free reset: the per-sub-accel structs (and their level-history
  // vectors) keep their capacity, so a reused Telemetry allocates nothing.
  if (subs_.size() != num_sub_accels) subs_.resize(num_sub_accels);
  for (auto& sub : subs_) {
    auto history = std::move(sub.recent_levels);
    sub = SubAccelTelemetry{};
    sub.recent_levels = std::move(history);
    sub.recent_levels.clear();
  }
  task_latency_ewma_.fill(0.0);
  task_completions_.fill(0);
  queue_depth_ = 0;
  queue_depth_ewma_ = 0.0;
}

const SubAccelTelemetry& Telemetry::sub_accel(std::size_t sa) const {
  if (sa >= subs_.size()) {
    throw std::out_of_range("Telemetry: sub_accel out of range");
  }
  return subs_[sa];
}

void Telemetry::advance(SubAccelTelemetry& sub, double now_ms) {
  const double dt = now_ms - sub.last_event_ms;
  if (dt <= 0.0) return;  // same-timestamp events: nothing elapsed
  const double occupancy = sub.busy ? 1.0 : 0.0;
  if (sub.busy) {
    sub.busy_ms += dt;
  } else {
    // Idle time past the run window is the next accounting period's (the
    // runner's idle-energy charge clamps identically, keeping idle_ms and
    // idle_mj on one basis); busy time is never clamped — drain past the
    // window is real execution.
    const double idle_dt =
        std::min(now_ms, window_end_ms_) - sub.last_event_ms;
    if (idle_dt > 0.0) sub.idle_ms += idle_dt;
  }
  // Exponential window: old state decays by e^(-dt/tau), the elapsed
  // interval contributes its occupancy with the complementary weight. A
  // pure function of event times — no wall clock anywhere.
  const double w = std::exp(-dt / kUtilTauMs);
  sub.util_ewma = w * sub.util_ewma + (1.0 - w) * occupancy;
  sub.last_event_ms = now_ms;
}

void Telemetry::on_dispatch(std::size_t sa, const InferenceRequest& req,
                            std::size_t level, double now_ms,
                            std::size_t queue_depth) {
  (void)req;
  auto& sub = subs_.at(sa);
  advance(sub, now_ms);
  sub.busy = true;
  ++sub.dispatches;
  sub.last_level = static_cast<int>(level);
  if (sub.recent_levels.size() == kLevelHistoryDepth) {
    sub.recent_levels.erase(sub.recent_levels.begin());
  }
  sub.recent_levels.push_back(static_cast<int>(level));
  queue_depth_ = queue_depth;
  queue_depth_ewma_ = (1.0 - kEwmaAlpha) * queue_depth_ewma_ +
                      kEwmaAlpha * static_cast<double>(queue_depth);
}

void Telemetry::on_retire(std::size_t sa, const InferenceRequest& req,
                          std::size_t level, double now_ms, double dynamic_mj,
                          double static_mj) {
  (void)level;
  auto& sub = subs_.at(sa);
  advance(sub, now_ms);
  sub.busy = false;
  ++sub.retires;
  sub.dynamic_mj += dynamic_mj;
  sub.static_mj += static_mj;

  const std::size_t ti = models::task_index(req.task);
  const double latency = now_ms - req.treq_ms;
  if (task_completions_[ti] == 0) {
    task_latency_ewma_[ti] = latency;  // first sample seeds the EWMA
  } else {
    task_latency_ewma_[ti] =
        (1.0 - kEwmaAlpha) * task_latency_ewma_[ti] + kEwmaAlpha * latency;
  }
  ++task_completions_[ti];
}

void Telemetry::on_abort(std::size_t sa, double now_ms, double dynamic_mj,
                         double static_mj) {
  auto& sub = subs_.at(sa);
  advance(sub, now_ms);
  sub.busy = false;
  ++sub.aborts;
  sub.last_abort_ms = now_ms;
  sub.dynamic_mj += dynamic_mj;
  sub.static_mj += static_mj;
  // No retire, no task latency sample: a burned or killed attempt says
  // nothing about how long a completion takes.
}

void Telemetry::on_park(std::size_t sa, std::size_t level) {
  subs_.at(sa).park_level = static_cast<int>(level);
}

void Telemetry::on_idle_energy(std::size_t sa, double idle_mj) {
  subs_.at(sa).idle_mj += idle_mj;
}

void Telemetry::finish(double end_ms) {
  for (auto& sub : subs_) advance(sub, end_ms);
}

void Telemetry::merge_from(const Telemetry& phase, double phase_start_ms) {
  if (subs_.size() != phase.subs_.size()) {
    throw std::invalid_argument(
        "Telemetry::merge_from: sub-accelerator count mismatch");
  }
  for (std::size_t sa = 0; sa < subs_.size(); ++sa) {
    auto& sub = subs_[sa];
    const auto& p = phase.subs_[sa];
    sub.busy_ms += p.busy_ms;
    sub.idle_ms += p.idle_ms;
    sub.dispatches += p.dispatches;
    sub.retires += p.retires;
    sub.aborts += p.aborts;
    if (p.aborts > 0) {
      sub.last_abort_ms = p.last_abort_ms + phase_start_ms;
    }
    sub.dynamic_mj += p.dynamic_mj;
    sub.static_mj += p.static_mj;
    sub.idle_mj += p.idle_mj;
    // Windowed state: the phase's view is the freshest history.
    sub.util_ewma = p.util_ewma;
    sub.busy = p.busy;
    sub.last_event_ms = p.last_event_ms + phase_start_ms;
    if (p.last_level >= 0) sub.last_level = p.last_level;
    if (p.park_level >= 0) sub.park_level = p.park_level;
    sub.recent_levels = p.recent_levels;
  }
  for (std::size_t ti = 0; ti < models::kNumTasks; ++ti) {
    if (phase.task_completions_[ti] > 0) {
      task_latency_ewma_[ti] = phase.task_latency_ewma_[ti];
    }
    task_completions_[ti] += phase.task_completions_[ti];
  }
  queue_depth_ = phase.queue_depth_;
  queue_depth_ewma_ = phase.queue_depth_ewma_;
}

}  // namespace xrbench::runtime
