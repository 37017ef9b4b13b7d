#include "hw/dvfs.h"

#include <cmath>
#include <iterator>

namespace xrbench::hw {

bool DvfsState::valid() const {
  if (!std::isfinite(transition_ms) || transition_ms < 0.0 ||
      !std::isfinite(idle_mw) || idle_mw < 0.0) {
    return false;
  }
  if (levels.empty()) return nominal_level == 0;
  if (levels.size() > kMaxDvfsLevels || nominal_level >= levels.size()) {
    return false;
  }
  double prev_freq = 0.0;
  for (const auto& op : levels) {
    if (!std::isfinite(op.freq_ghz) || op.freq_ghz <= prev_freq ||
        !std::isfinite(op.voltage_v) || op.voltage_v <= 0.0) {
      return false;
    }
    prev_freq = op.freq_ghz;
  }
  return true;
}

DvfsState default_dvfs_state(double nominal_clock_ghz) {
  static constexpr double kFreqMultipliers[] = {0.5, 0.7, 0.85, 1.0, 1.2};
  DvfsState state;
  state.levels.reserve(std::size(kFreqMultipliers));
  for (double m : kFreqMultipliers) {
    DvfsOperatingPoint op;
    // The nominal multiplier is applied as an exact identity so the nominal
    // level's V/f is bit-identical to the fixed-clock configuration (the
    // per-level cost table then reproduces the legacy costs exactly).
    op.freq_ghz = m == 1.0 ? nominal_clock_ghz : nominal_clock_ghz * m;
    op.voltage_v =
        m == 1.0 ? kNominalVoltageV : kNominalVoltageV * (0.55 + 0.45 * m);
    state.levels.push_back(op);
  }
  state.nominal_level = 3;  // the 1.0x point
  return state;
}

}  // namespace xrbench::hw
