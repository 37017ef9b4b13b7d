#pragma once

#include <cstddef>
#include <vector>

namespace xrbench::hw {

/// Supply voltage the energy constants (costmodel::EnergyParams) are
/// calibrated at. Operating points scale dynamic energy by (V/Vnom)^2 and
/// static power by V/Vnom relative to this point.
inline constexpr double kNominalVoltageV = 0.8;

/// Most operating points a DVFS ladder may list. Real PMUs expose a handful
/// (the default ladder has 5), while every level multiplies the cost
/// columns a CostTable holds per (model, sub-accelerator) — levels x
/// (layers + 1) x 3 doubles — so an unbounded ladder from a config file
/// could exhaust memory before any run starts.
inline constexpr std::size_t kMaxDvfsLevels = 64;

/// One DVFS operating point of a sub-accelerator: a (frequency, voltage)
/// pair the power-management unit can switch to between inferences.
struct DvfsOperatingPoint {
  double freq_ghz = 1.0;
  double voltage_v = kNominalVoltageV;
};

/// Per-sub-accelerator DVFS table. `levels` is sorted ascending by
/// frequency; `nominal_level` indexes the table's baseline operating point
/// (its frequency must equal the sub-accelerator's configured clock; when
/// its voltage is also kNominalVoltageV, nominal-level costs are
/// bit-identical to the non-DVFS path). Energy scaling is always anchored
/// at kNominalVoltageV, not at the nominal level's voltage, so sweeps over
/// differently-anchored tables stay comparable. An empty table means the
/// sub-accelerator runs at a single fixed nominal point.
struct DvfsState {
  std::vector<DvfsOperatingPoint> levels;
  std::size_t nominal_level = 0;
  /// Latency charged by the dispatcher when two consecutive dispatches on
  /// this sub-accelerator execute at different levels (the PMU's
  /// PLL-relock / voltage-settle cost). The default 0 keeps governed runs
  /// bit-identical to the penalty-free model.
  double transition_ms = 0.0;
  /// Idle power (mW) the sub-accelerator burns between inferences at the
  /// calibration voltage hw::kNominalVoltageV; the actual draw scales with
  /// V/Vnom at the level the hardware PARKS at while idle (the PMU holds
  /// the last programmed operating point; governors may override it, see
  /// FrequencyGovernor::park_level). This is the term that separates
  /// race-to-idle (sprint, park low) from fixed-highest (park high) in
  /// energy. The default 0 keeps every pre-existing result bit-identical —
  /// idle time is then free, as it always was.
  double idle_mw = 0.0;

  /// Number of selectable levels (1 for the empty fixed-clock table).
  std::size_t num_levels() const { return levels.empty() ? 1 : levels.size(); }

  /// True for the empty table or a strictly-ascending positive finite V/f
  /// ladder of at most kMaxDvfsLevels points with a valid nominal index,
  /// and a finite non-negative transition_ms and idle_mw.
  bool valid() const;

  /// True when the table's nominal frequency matches `clock_ghz` (trivially
  /// true for the empty table). The single source of truth for the anchor
  /// invariant that keeps nominal-level costs bit-identical to the
  /// fixed-clock path; callers must have checked valid() first.
  bool anchored_at(double clock_ghz) const {
    return levels.empty() || levels[nominal_level].freq_ghz == clock_ghz;
  }
};

/// The default five-point V/f ladder around `nominal_clock_ghz`:
/// frequency multipliers {0.5, 0.7, 0.85, 1.0, 1.2} with the classic
/// near-linear frequency-voltage relation V = Vnom * (0.55 + 0.45 * f/fnom).
/// nominal_level is the 1.0x point.
DvfsState default_dvfs_state(double nominal_clock_ghz);

}  // namespace xrbench::hw
