#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "runtime/dispatch_context.h"

namespace xrbench::runtime {

/// DVFS policy interface. The dispatcher consults the governor twice per
/// inference lifetime:
///  * level_for() — once per dispatch, after the Scheduler picked
///    (request, sub-accelerator); the returned level selects the
///    (latency, energy) row of the CostTable the inference executes under.
///  * park_level() — once per retire; the returned level is where the
///    sub-accelerator idles until its next dispatch. It only matters when
///    the hardware declares an idle-power term (hw::DvfsState::idle_mw):
///    idle energy integrates that term at the parked level's voltage.
///
/// Both receive the unified runtime::DispatchContext (telemetry, CostTable,
/// session clock, hardware view). Governors MAY keep internal state across
/// consultations of one run — the simulation consults them in a fixed
/// reproducible order and every sweep trial gets a fresh instance (reset()
/// is the per-run boundary); see dispatch_context.h for the full
/// determinism contract. Returned levels must always satisfy
/// level < ctx.costs->num_levels(ctx.sub_accel).
class FrequencyGovernor {
 public:
  virtual ~FrequencyGovernor() = default;
  virtual const char* name() const = 0;

  /// Picks the DVFS level to run ctx.request on ctx.sub_accel.
  virtual std::size_t level_for(const DispatchContext& ctx) = 0;

  /// Level ctx.sub_accel parks at after retiring an inference that ran at
  /// ctx.level. The default holds that level — the PMU keeps the last
  /// programmed operating point, which is what real fixed-policy hardware
  /// does between inferences.
  virtual std::size_t park_level(const DispatchContext& ctx) {
    return ctx.level;
  }

  /// Called once before a run so stateful policies can reset.
  virtual void reset() {}
};

/// Fixed-level policy: always run at the lowest, nominal, or highest
/// operating point of the chosen sub-accelerator (the "performance" /
/// "powersave" endpoints of a classic cpufreq governor).
class FixedLevelGovernor final : public FrequencyGovernor {
 public:
  enum class Level { kLowest, kNominal, kHighest };
  explicit FixedLevelGovernor(Level level) : level_(level) {}

  const char* name() const override;
  std::size_t level_for(const DispatchContext& ctx) override;

 private:
  Level level_;
};

/// Deadline-aware "slow to the deadline" policy: among the levels whose
/// predicted completion (now + latency at that level) still meets the
/// request's deadline, pick the one with minimal energy (ties -> lowest
/// level). When no level can make the deadline, fall back to the fastest
/// level to minimize the overrun.
class DeadlineAwareGovernor final : public FrequencyGovernor {
 public:
  const char* name() const override { return "deadline-aware"; }
  std::size_t level_for(const DispatchContext& ctx) override;
};

/// Race-to-idle policy: sprint at the highest operating point so the
/// sub-accelerator returns to idle as fast as possible, then park at the
/// LOWEST point for the idle window. With hw::DvfsState::idle_mw == 0 (the
/// default) this still coincides with fixed-highest in every metric; a
/// nonzero idle-power term finally separates the two in energy — sprinting
/// buys cheap idle time, holding the highest V/f makes idle expensive.
class RaceToIdleGovernor final : public FrequencyGovernor {
 public:
  const char* name() const override { return "race-to-idle"; }
  std::size_t level_for(const DispatchContext& ctx) override;
  std::size_t park_level(const DispatchContext& ctx) override;
};

/// History-aware ondemand policy (the cpufreq classic, per sub-accelerator):
/// tracks a current level per sub-accelerator; when the telemetry's
/// utilization EWMA exceeds kUpThreshold it jumps straight to the highest
/// level (latency protection under bursts), when it falls below
/// kDownThreshold it steps DOWN one level at a time, and inside the
/// hysteresis band it holds. Starts (and resets) at the nominal level.
/// Without telemetry in the context the utilization reads as 0 and the
/// policy settles to the lowest level.
class OndemandGovernor final : public FrequencyGovernor {
 public:
  static constexpr double kUpThreshold = 0.70;
  static constexpr double kDownThreshold = 0.30;

  const char* name() const override { return "ondemand"; }
  std::size_t level_for(const DispatchContext& ctx) override;
  void reset() override { current_.clear(); }

 private:
  /// Current level per sub-accelerator; lazily sized on first consultation
  /// (each entry starts at the sub-accelerator's nominal level).
  std::vector<std::size_t> current_;
};

/// Utilization-feedback policy: proportional control toward a target busy
/// fraction, kTargetUtilization. Reads the sub-accelerator's utilization EWMA u and requests
/// the slowest operating point whose frequency covers u/target of the
/// nominal clock — a lightly-loaded sub-accelerator glides to the low V/f
/// points, a saturated one is pushed past nominal. Falls back to the
/// nominal level when the context carries no hardware view or the
/// sub-accelerator has no DVFS ladder.
class UtilizationFeedbackGovernor final : public FrequencyGovernor {
 public:
  static constexpr double kTargetUtilization = 0.5;

  const char* name() const override { return "utilization-feedback"; }
  std::size_t level_for(const DispatchContext& ctx) override;
};

/// Per-sub-accelerator governor composite: routes level_for()/park_level()
/// to the override registered for ctx.sub_accel, falling back to the base
/// policy. Lets heterogeneous systems mix policies (e.g. race-to-idle on a
/// small always-on sub-accelerator, deadline-aware on the big one); each
/// child keeps its own state and the routing key is part of the context, so
/// the composite stays inside the governor determinism contract.
class PerSubAccelGovernor final : public FrequencyGovernor {
 public:
  explicit PerSubAccelGovernor(std::unique_ptr<FrequencyGovernor> base);

  /// Installs `governor` for `sub_accel` (replacing any previous override).
  void set_override(std::size_t sub_accel,
                    std::unique_ptr<FrequencyGovernor> governor);

  const char* name() const override { return "per-sub-accel"; }
  std::size_t level_for(const DispatchContext& ctx) override;
  std::size_t park_level(const DispatchContext& ctx) override;
  void reset() override;

 private:
  std::unique_ptr<FrequencyGovernor> base_;
  /// Indexed by sub-accelerator; null entries fall through to base_.
  std::vector<std::unique_ptr<FrequencyGovernor>> overrides_;
};

}  // namespace xrbench::runtime
