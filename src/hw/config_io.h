#pragma once

#include <filesystem>
#include <string>

#include "hw/accelerator.h"

namespace xrbench::hw {

/// Text-config serialization of accelerator systems (the artifact's
/// "hw_configs"-style customization, appendix D.7). Format:
///
///   [chip]
///   id = J
///   style = HDA
///   clock_ghz = 1.0
///
///   [sub_accel]            ; one section per sub-accelerator
///   dataflow = WS
///   num_pes = 4096
///   noc_gbps = 128
///   offchip_gbps = 12
///   sram_kib = 4096
///   ; optional DVFS operating-point table (freq_ghz@voltage_v pairs,
///   ; strictly ascending in frequency; the nominal level must match the
///   ; chip clock so nominal-level costs stay bit-identical):
///   dvfs_levels = 0.5@0.62, 0.85@0.74, 1@0.8, 1.2@0.836
///   dvfs_nominal = 2
///   dvfs_transition_ms = 0.1   ; level-switch latency penalty (default 0)
///   dvfs_idle_mw = 40          ; idle power at Vnom, parked-level scaled
///                              ; (default 0 = idle time is free)
///
///   [faults]               ; optional fault-injection profile (see
///   transient_rate = 0.05  ; runtime/fault_spec.h for every key; omitted
///   max_retries = 2        ; or all-zero = fault-free, byte-identical to
///   retry_backoff_ms = 2   ; pre-fault output)
///
/// Ratios/partitioning are explicit per sub-accelerator, so arbitrary
/// systems beyond Table 5 can be described. Every rejection reads
/// "accelerator config line N: ..." (util::IniDocument): a malformed or
/// out-of-range key, DVFS ladder (non-monotonic frequencies, non-positive
/// voltages, out-of-range or unanchored nominal), [faults] key or
/// [fault_domain] member names its own line; a bandwidth that over- or
/// underflows bytes per cycle at the chip clock names its [sub_accel]; a
/// section other than [chip], [faults], [sub_accel] and [fault_domain]
/// names its header's line.

/// Serializes a system to INI text.
std::string to_config_text(const AcceleratorSystem& system);

/// Parses a system from INI text. Throws std::invalid_argument on
/// malformed configs (no sub-accelerators, bad dataflow, non-positive
/// resources), or std::out_of_range for a missing key.
AcceleratorSystem from_config_text(const std::string& text);

/// File variant of from_config_text.
AcceleratorSystem load_accelerator(const std::filesystem::path& path);

/// Parses an accelerator style name ("FDA"/"SFDA"/"HDA").
AccelStyle parse_accel_style(const std::string& name);

}  // namespace xrbench::hw
