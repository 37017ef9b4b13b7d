#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "util/ini.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace xrbench::workload {

/// Text-config serialization of usage scenarios (the benchmark-input side
/// of Figure 2: "Workload Description / Usage Scenario Info"). Format:
///
///   [scenario]
///   name = Custom AR
///   description = my scenario
///
///   [model]                 ; one section per active model
///   task = HT
///   fps = 45
///   depends_on = ES        ; optional
///   dependency = data      ; data | control (required with depends_on)
///   trigger_probability = 0.5
///
/// Enables user-defined scenarios beyond Table 2 without recompiling.

std::string to_config_text(const UsageScenario& scenario);

/// Parses a scenario from INI text. Validates: at least one model, no
/// duplicate tasks, dependencies reference active models, data-dependent
/// rates match their upstream's, probabilities in [0,1], FPS within the
/// driving sensor's rate. Every rejection reads "scenario config line N:
/// ..." (util::IniDocument), at the offending key's line or, for a
/// whole-scenario rule, at its [scenario] or [model] header. A section
/// other than [scenario] and [model] is rejected at its header's line.
UsageScenario from_config_text(const std::string& text);

UsageScenario load_scenario(const std::filesystem::path& path);

/// Text-config serialization of scenario programs. Format:
///
///   [program]
///   name = Commute Session
///   description = walk -> transit -> walk
///   scheduler = edf              ; optional PolicyRegistry names
///   governor = deadline-aware    ; optional
///   admission = drop-early       ; optional
///
///   [faults]                     ; optional fault profile for every phase
///   transient_rate = 0.05        ; (see runtime/fault_spec.h; overrides
///   max_retries = 2              ; the run config's and the hardware's
///                                ; spec when enabled)
///
///   [scenario]                   ; optional inline scenario definitions,
///   name = Transit Idle          ; each followed by its [model] sections
///   [model]
///   task = KD
///   fps = 3
///
///   [phase]                      ; one section per phase, in order
///   scenario = AR Assistant      ; inline name, or a registered scenario
///   duration_ms = 500
///   seed_offset = 1              ; optional, default 0
///
/// Phase scenarios resolve against the file's inline definitions first,
/// then against the built-in suite/extension registries. The writer inlines
/// every phase scenario, so any program round-trips without relying on the
/// registries. Rejections, unknown policy names and sections outside this
/// grammar included, read "program config line N: ...", like the scenario
/// parser's.

std::string to_config_text(const ScenarioProgram& program);
ScenarioProgram program_from_config_text(const std::string& text);

/// Parses every [program] of an already-parsed document, in section order.
/// Inline [scenario]/[model] definitions are file-global (any program's
/// phases may reference them); [phase] and [faults] sections belong to the
/// most recent [program] header (a [phase]/[faults] before any [program] is
/// rejected with its source line). program_from_config_text is the
/// single-program wrapper; fleet configs carry several session programs in
/// one file and resolve them through this entry point.
std::vector<ScenarioProgram> programs_from_document(
    const util::IniDocument& doc);

ScenarioProgram load_program(const std::filesystem::path& path);

}  // namespace xrbench::workload
