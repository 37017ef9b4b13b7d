#include "workload/scenario_io.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "runtime/fault_plan.h"
#include "runtime/policy_registry.h"
#include "util/ini.h"
#include "util/table.h"
#include "workload/input_source.h"
#include "workload/unit_model.h"

namespace xrbench::workload {
namespace {

using Registry = runtime::PolicyRegistry;
using Section = util::IniDocument::Section;

DependencyType parse_dependency(const std::string& s) {
  if (s == "data") return DependencyType::kData;
  if (s == "control") return DependencyType::kControl;
  throw std::invalid_argument("dependency must be 'data' or 'control', got '" +
                              s + "'");
}

ScenarioModel parse_model_section(const Section& sec) {
  sec.reject_unknown_keys({"task", "fps", "depends_on", "dependency",
                           "trigger_probability"});
  ScenarioModel m;
  m.task = sec.get_as("task", models::parse_task_code);
  m.target_fps = sec.get_double("fps", 0.0,
                                input_source(driving_source(m.task)).fps,
                                /*lo_open=*/true);
  if (sec.has("depends_on")) {
    m.depends_on = sec.get_as("depends_on", models::parse_task_code);
    m.dependency = sec.get_as("dependency", parse_dependency);
    if (sec.has("trigger_probability")) {
      m.trigger_probability = sec.get_double("trigger_probability", 0.0, 1.0);
    }
  }
  return m;
}

/// One scenario from its [scenario] header and [model] sections. Whole-
/// scenario rules, rejected at the header or the offending [model] header:
/// at least one model, no duplicate tasks, dependencies on active models,
/// data-dependent rates equal to their upstream's.
UsageScenario parse_scenario(const Section& head,
                             const std::vector<const Section*>& model_secs) {
  head.reject_unknown_keys({"name", "description"});
  UsageScenario scenario;
  scenario.name = head.get("name");
  scenario.description = head.get_or("description", "");
  if (model_secs.empty()) {
    head.reject("", "at least one [model] section is required");
  }
  for (const auto* sec : model_secs) {
    scenario.models.push_back(parse_model_section(*sec));
  }
  std::set<models::TaskId> seen;
  for (std::size_t i = 0; i < scenario.models.size(); ++i) {
    const auto& m = scenario.models[i];
    const Section& sec = *model_secs[i];
    const std::string code = models::task_code(m.task);
    if (!seen.insert(m.task).second) sec.reject("", "duplicate task " + code);
    if (m.depends_on && scenario.find(*m.depends_on) == nullptr) {
      sec.reject("", code + " depends on inactive model " +
                         models::task_code(*m.depends_on));
    }
    try {
      validate_dependency_rate(scenario, m);
    } catch (const std::invalid_argument& e) {
      sec.reject("", e.what());
    }
  }
  return scenario;
}

/// One [phase]; its scenario resolves against `inline_scenarios` before
/// the built-in registries.
ScenarioPhase parse_phase(const Section& sec,
                          const std::vector<UsageScenario>& inline_scenarios) {
  sec.reject_unknown_keys({"scenario", "duration_ms", "seed_offset"});
  ScenarioPhase phase;
  const std::string& ref = sec.get("scenario");
  const UsageScenario* resolved = nullptr;
  for (const auto& s : inline_scenarios) {
    if (s.name == ref) resolved = &s;
  }
  phase.scenario = resolved != nullptr
                       ? *resolved
                       : sec.get_as("scenario", scenario_by_name);
  phase.duration_ms = sec.get_double("duration_ms", 0.0, util::kUnbounded,
                                     /*lo_open=*/true);
  if (sec.has("seed_offset")) phase.seed_offset = sec.get_uint64("seed_offset");
  return phase;
}

void append_scenario_sections(util::IniDocument& doc,
                              const UsageScenario& scenario) {
  auto& head = doc.add_section("scenario");
  head.set("name", scenario.name);
  head.set("description", scenario.description);
  for (const auto& m : scenario.models) {
    auto& sec = doc.add_section("model");
    sec.set("task", models::task_code(m.task));
    sec.set_double("fps", m.target_fps);
    if (m.depends_on) {
      sec.set("depends_on", models::task_code(*m.depends_on));
      sec.set("dependency", dependency_type_name(m.dependency));
      sec.set_double("trigger_probability", m.trigger_probability);
    }
  }
}

/// The scenario of a scenario-config document.
UsageScenario scenario_from_document(const util::IniDocument& doc) {
  doc.reject_unknown_sections({"scenario", "model"});
  return parse_scenario(doc.section("scenario"), doc.sections("model"));
}

bool same_scenario(const UsageScenario& a, const UsageScenario& b) {
  if (a.name != b.name || a.models.size() != b.models.size()) return false;
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    const auto& ma = a.models[i];
    const auto& mb = b.models[i];
    if (ma.task != mb.task || ma.target_fps != mb.target_fps ||
        ma.depends_on != mb.depends_on || ma.dependency != mb.dependency ||
        ma.trigger_probability != mb.trigger_probability) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string to_config_text(const UsageScenario& scenario) {
  util::IniDocument doc;
  append_scenario_sections(doc, scenario);
  return doc.to_string();
}

UsageScenario from_config_text(const std::string& text) {
  return scenario_from_document(
      util::IniDocument::parse(text, "scenario config"));
}

UsageScenario load_scenario(const std::filesystem::path& path) {
  return scenario_from_document(
      util::IniDocument::load(path, "scenario config"));
}

std::string to_config_text(const ScenarioProgram& program) {
  validate_program(program);
  util::IniDocument doc;
  auto& head = doc.add_section("program");
  head.set("name", program.name);
  head.set("description", program.description);
  if (!program.scheduler.empty()) head.set("scheduler", program.scheduler);
  if (!program.governor.empty()) head.set("governor", program.governor);
  if (!program.admission.empty()) head.set("admission", program.admission);
  // Optional [faults] profile; a default spec writes nothing so fault-free
  // programs round-trip byte-identically to pre-fault output.
  runtime::write_fault_section(doc, program.faults);

  // Inline every distinct phase scenario (first definition wins), so the
  // file is self-contained. Two different scenarios may not share a name —
  // the phase reference would be ambiguous.
  std::vector<const UsageScenario*> inlined;
  for (const auto& phase : program.phases) {
    const UsageScenario* existing = nullptr;
    for (const auto* s : inlined) {
      if (s->name == phase.scenario.name) existing = s;
    }
    if (existing != nullptr) {
      if (!same_scenario(*existing, phase.scenario)) {
        throw std::invalid_argument(
            "program config: two different scenarios named '" +
            phase.scenario.name + "'");
      }
      continue;
    }
    inlined.push_back(&phase.scenario);
    append_scenario_sections(doc, phase.scenario);
  }

  for (const auto& phase : program.phases) {
    auto& sec = doc.add_section("phase");
    sec.set("scenario", phase.scenario.name);
    // Exact (max_digits10) so parsed programs replay bit-identically.
    sec.set("duration_ms", util::fmt_double_exact(phase.duration_ms));
    sec.set("seed_offset", std::to_string(phase.seed_offset));
  }
  return doc.to_string();
}

std::vector<ScenarioProgram> programs_from_document(
    const util::IniDocument& doc) {
  // First pass: inline scenario definitions in section order — each
  // [scenario] header owns the [model] sections that follow it. Inline
  // definitions are file-global: every program's phases may reference any
  // of them.
  std::vector<std::pair<const Section*, std::vector<const Section*>>> defs;
  for (const auto& sec : doc.all_sections()) {
    if (sec.name == "scenario") {
      defs.push_back({&sec, {}});
    } else if (sec.name == "model") {
      if (defs.empty()) {
        sec.reject("", "[model] section before any [scenario]");
      }
      defs.back().second.push_back(&sec);
    }
  }
  std::vector<UsageScenario> inline_scenarios;
  for (const auto& [head, model_secs] : defs) {
    inline_scenarios.push_back(parse_scenario(*head, model_secs));
    for (std::size_t i = 0; i + 1 < inline_scenarios.size(); ++i) {
      if (inline_scenarios[i].name == inline_scenarios.back().name) {
        head->reject("name", "duplicate inline scenario '" +
                                 inline_scenarios.back().name + "'");
      }
    }
  }

  // Second pass: programs, in section order. [phase] and [faults] sections
  // attach to the most recent [program] header; phase references resolve
  // inline definitions before the built-in scenario registries.
  std::vector<ScenarioProgram> programs;
  std::vector<const Section*> heads;
  for (const auto& sec : doc.all_sections()) {
    if (sec.name == "program") {
      sec.reject_unknown_keys(
          {"name", "description", "scheduler", "governor", "admission"});
      heads.push_back(&sec);
      ScenarioProgram program;
      program.name = sec.get("name");
      program.description = sec.get_or("description", "");
      // A policy name the registry does not know is rejected at its line.
      auto policy = [&](const char* key, auto checked) {
        return sec.has(key) ? sec.get_as(key, checked) : std::string();
      };
      program.scheduler = policy("scheduler", Registry::checked_scheduler);
      program.governor = policy("governor", Registry::checked_governor);
      program.admission = policy("admission", Registry::checked_admission);
      programs.push_back(std::move(program));
    } else if (sec.name == "faults" || sec.name == "phase") {
      if (programs.empty()) {
        sec.reject("", "[" + sec.name + "] section before any [program]");
      }
      if (sec.name == "faults") {
        programs.back().faults = runtime::parse_fault_section(sec);
      } else {
        programs.back().phases.push_back(parse_phase(sec, inline_scenarios));
      }
    }
  }
  for (std::size_t p = 0; p < programs.size(); ++p) {
    if (programs[p].phases.empty()) {
      heads[p]->reject("", "at least one [phase] section is required");
    }
    validate_program(programs[p]);
  }
  return programs;
}

namespace {

/// The [program] of a single-program document.
ScenarioProgram single_program(const util::IniDocument& doc) {
  doc.reject_unknown_sections(
      {"program", "faults", "scenario", "model", "phase"});
  doc.section("program");  // exactly one [program]; throws otherwise
  return std::move(programs_from_document(doc).front());
}

}  // namespace

ScenarioProgram program_from_config_text(const std::string& text) {
  return single_program(
      util::IniDocument::parse(text, "program config"));
}

ScenarioProgram load_program(const std::filesystem::path& path) {
  return single_program(
      util::IniDocument::load(path, "program config"));
}

}  // namespace xrbench::workload
