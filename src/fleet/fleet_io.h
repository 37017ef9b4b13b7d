#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "fleet/fleet_config.h"
#include "workload/scenario_program.h"

namespace xrbench::fleet {

/// Text-config serialization of fleet simulations. Format:
///
///   [fleet]
///   seed = 42
///   arrival_rate_per_s = 4.0
///   zipf_s = 1.0
///   pool_size = 2
///   arrival_window_ms = 4000
///   max_sessions = 256
///   admission = fleet-queue       ; PolicyRegistry admission name
///   scheduler = edf               ; optional per-session override
///   governor = deadline-aware     ; optional per-session override
///   programs = Scenario Hand-Off, Commute   ; optional, popularity-rank
///                                           ; order (comma-separated)
///
///   [class]                       ; one per priority class, rank order
///   weight = 3                    ; (class 0 outranks class 1; omit all
///   wait_budget_ms = 50           ; [class] sections for one default class)
///
/// The file may also carry inline session-program definitions — the full
/// [program]/[faults]/[scenario]/[model]/[phase] grammar of
/// workload::programs_from_document. `programs` names resolve against those
/// inline definitions first, then against the registered programs; when the
/// key is absent, the inline programs (in file order) become the catalog,
/// and with neither the registered extension programs do.
///
/// Every rejected config reads "fleet config line N: ..." with the
/// offending key's 1-based source line — unknown [fleet]/[class] keys,
/// `programs` names and policy names included — or the section header's
/// line for an unknown section name or an overflowing class-weight sum.

/// A parsed fleet file: the config plus its resolved program catalog in
/// popularity-rank order (FleetConfig alone cannot carry inline programs).
struct FleetSetup {
  FleetConfig config;
  std::vector<workload::ScenarioProgram> catalog;
};

/// Serializes the [fleet] and [class] sections. Program names are written
/// by reference (not inlined); a config whose names are all registered
/// round-trips through fleet_from_config_text bit-exactly.
std::string to_config_text(const FleetConfig& config);

/// Parses and validates a fleet config, resolving the program catalog.
/// Throws std::invalid_argument with a source line number on malformed
/// input.
FleetSetup fleet_from_config_text(const std::string& text);

FleetSetup load_fleet(const std::filesystem::path& path);

}  // namespace xrbench::fleet
