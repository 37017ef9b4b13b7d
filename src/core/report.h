#pragma once

#include <filesystem>
#include <ostream>
#include <string>

#include "core/harness.h"

namespace xrbench::core {

/// Report generation (the "Benchmark Outputs" of Figure 2): human-readable
/// score tables / timelines and machine-readable CSV dumps.

/// Prints a Figure-5-style breakdown table (one row per scenario:
/// real-time / energy / QoE / overall).
void print_benchmark_report(std::ostream& os, const SuitePointScore& outcome);

/// Prints per-model detail for one scenario (frames, drops, deadline
/// misses, unit scores) from its `trials`-trial average `score`, with
/// latency tails and resilience counters read from `final_trial`, its
/// final trial's run (re-run at last_trial_seed).
void print_scenario_report(std::ostream& os, const ScenarioScore& score,
                           int trials,
                           const runtime::ScenarioRunResult& final_trial);

/// Renders a Figure-6-style ASCII execution timeline: one lane per
/// sub-accelerator, one glyph per `resolution_ms` slice, letters keyed by
/// task code.
void print_timeline(std::ostream& os, const runtime::ScenarioRunResult& run,
                    double until_ms = 600.0, double resolution_ms = 5.0);

/// Prints the per-sub-accelerator energy breakdown of one run, sourced from
/// the runtime telemetry: busy/idle time, utilization, and the
/// dynamic / static / idle mJ split (idle is 0 unless the hardware declares
/// hw::DvfsState::idle_mw). The accelerator columns sum to less than the
/// run's total energy when RunConfig::system_baseline_w amortizes a
/// device-level baseline into per-inference energies; the footer separates
/// that share out.
void print_energy_breakdown(std::ostream& os,
                            const runtime::ScenarioRunResult& run);

/// Dumps the same per-sub-accelerator energy breakdown to CSV (sub_accel,
/// busy_ms, idle_ms, utilization, util_ewma, dispatches, dynamic_mj,
/// static_mj, idle_mj, total_mj).
void write_energy_breakdown_csv(const std::filesystem::path& path,
                                const runtime::ScenarioRunResult& run);

/// Dumps per-inference records of one run to CSV (task, frame, treq,
/// deadline, dispatch, completion, latency, energy, dropped).
void write_inference_log_csv(const std::filesystem::path& path,
                             const runtime::ScenarioRunResult& run);

/// Dumps the per-scenario score table of a benchmark outcome to CSV.
void write_scores_csv(const std::filesystem::path& path,
                      const SuitePointScore& outcome);

}  // namespace xrbench::core
