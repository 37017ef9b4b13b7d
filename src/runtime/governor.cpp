#include "runtime/governor.h"

#include <optional>
#include <stdexcept>

namespace xrbench::runtime {
namespace {

void check_context(const DispatchContext& ctx) {
  if (ctx.request == nullptr || ctx.costs == nullptr ||
      ctx.sub_accel >= ctx.costs->num_sub_accels()) {
    throw std::invalid_argument("FrequencyGovernor: incomplete context");
  }
}

}  // namespace

const char* FixedLevelGovernor::name() const {
  switch (level_) {
    case Level::kLowest: return "fixed-lowest";
    case Level::kNominal: return "fixed-nominal";
    case Level::kHighest: return "fixed-highest";
  }
  return "?";
}

std::size_t FixedLevelGovernor::level_for(const DispatchContext& ctx) {
  check_context(ctx);
  switch (level_) {
    case Level::kLowest: return 0;
    case Level::kNominal: return ctx.costs->nominal_level(ctx.sub_accel);
    case Level::kHighest: return ctx.costs->num_levels(ctx.sub_accel) - 1;
  }
  return 0;
}

std::size_t DeadlineAwareGovernor::level_for(const DispatchContext& ctx) {
  check_context(ctx);
  const std::size_t num = ctx.costs->num_levels(ctx.sub_accel);
  const models::TaskId task = ctx.request->task;
  std::optional<std::size_t> best;
  double best_energy = 0.0;
  for (std::size_t lvl = 0; lvl < num; ++lvl) {
    const auto& cost = ctx.costs->cost(task, ctx.sub_accel, lvl);
    if (ctx.now_ms + cost.latency_ms > ctx.request->tdl_ms) continue;
    // Strict < keeps the tie-break at the lower level index — a
    // permutation-free, order-independent choice.
    if (!best || cost.energy_mj < best_energy) {
      best = lvl;
      best_energy = cost.energy_mj;
    }
  }
  // Already doomed on every level: sprint to minimize the overrun (levels
  // are sorted ascending by frequency, so the last is the fastest).
  return best ? *best : num - 1;
}

std::size_t RaceToIdleGovernor::level_for(const DispatchContext& ctx) {
  check_context(ctx);
  return ctx.costs->num_levels(ctx.sub_accel) - 1;
}

std::size_t RaceToIdleGovernor::park_level(const DispatchContext& ctx) {
  check_context(ctx);
  // The whole point of racing: the idle window is spent at the cheapest
  // operating point. With idle_mw == 0 parking is free either way and this
  // changes nothing (the bit-identity default).
  return 0;
}

std::size_t OndemandGovernor::level_for(const DispatchContext& ctx) {
  check_context(ctx);
  if (current_.size() < ctx.costs->num_sub_accels()) {
    const std::size_t old = current_.size();
    current_.resize(ctx.costs->num_sub_accels());
    for (std::size_t sa = old; sa < current_.size(); ++sa) {
      current_[sa] = ctx.costs->nominal_level(sa);
    }
  }
  const std::size_t sa = ctx.sub_accel;
  const double util = ctx.telemetry ? ctx.telemetry->util_ewma(sa) : 0.0;
  std::size_t level = current_[sa];
  if (util > kUpThreshold) {
    // Burst: jump straight to the top (the classic ondemand latency rule —
    // ramping up one step at a time is how frames get dropped).
    level = ctx.costs->num_levels(sa) - 1;
  } else if (util < kDownThreshold && level > 0) {
    // Quiet: glide down one step per dispatch; the band between the
    // thresholds is the hysteresis that stops borderline load from
    // oscillating between levels.
    --level;
  }
  current_[sa] = level;
  return level;
}

std::size_t UtilizationFeedbackGovernor::level_for(const DispatchContext& ctx) {
  check_context(ctx);
  const std::size_t sa = ctx.sub_accel;
  const std::size_t nominal = ctx.costs->nominal_level(sa);
  if (ctx.system == nullptr || sa >= ctx.system->sub_accels.size()) {
    return nominal;  // hand-built context without a hardware view
  }
  const hw::DvfsState& dvfs = ctx.system->sub_accels[sa].dvfs;
  if (dvfs.levels.empty()) return 0;  // fixed-clock sub-accelerator
  const double util =
      ctx.telemetry ? ctx.telemetry->util_ewma(sa) : kTargetUtilization;
  // Proportional feedback: a busy fraction u at the recent operating mix
  // demands u/target of the nominal clock to settle at the target.
  const double desired_ghz =
      dvfs.levels[nominal].freq_ghz * util / kTargetUtilization;
  for (std::size_t lvl = 0; lvl < dvfs.levels.size(); ++lvl) {
    if (dvfs.levels[lvl].freq_ghz >= desired_ghz) return lvl;
  }
  return dvfs.levels.size() - 1;  // demand beyond the ladder: sprint
}

PerSubAccelGovernor::PerSubAccelGovernor(
    std::unique_ptr<FrequencyGovernor> base)
    : base_(std::move(base)) {
  if (base_ == nullptr) {
    throw std::invalid_argument("PerSubAccelGovernor: base must be non-null");
  }
}

void PerSubAccelGovernor::set_override(
    std::size_t sub_accel, std::unique_ptr<FrequencyGovernor> governor) {
  if (governor == nullptr) {
    throw std::invalid_argument(
        "PerSubAccelGovernor: override must be non-null");
  }
  if (overrides_.size() <= sub_accel) overrides_.resize(sub_accel + 1);
  overrides_[sub_accel] = std::move(governor);
}

std::size_t PerSubAccelGovernor::level_for(const DispatchContext& ctx) {
  check_context(ctx);
  if (ctx.sub_accel < overrides_.size() &&
      overrides_[ctx.sub_accel] != nullptr) {
    return overrides_[ctx.sub_accel]->level_for(ctx);
  }
  return base_->level_for(ctx);
}

std::size_t PerSubAccelGovernor::park_level(const DispatchContext& ctx) {
  check_context(ctx);
  if (ctx.sub_accel < overrides_.size() &&
      overrides_[ctx.sub_accel] != nullptr) {
    return overrides_[ctx.sub_accel]->park_level(ctx);
  }
  return base_->park_level(ctx);
}

void PerSubAccelGovernor::reset() {
  base_->reset();
  for (auto& gov : overrides_) {
    if (gov != nullptr) gov->reset();
  }
}

}  // namespace xrbench::runtime
