#include "workload/scenario_io.h"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "runtime/fault_plan.h"
#include "util/ini.h"
#include "util/table.h"
#include "workload/input_source.h"
#include "workload/unit_model.h"

namespace xrbench::workload {
namespace {

DependencyType parse_dependency(const std::string& s) {
  if (s == "data") return DependencyType::kData;
  if (s == "control") return DependencyType::kControl;
  throw std::invalid_argument(
      "scenario config: dependency must be 'data' or 'control', got '" + s +
      "'");
}

ScenarioModel parse_model_section(const util::IniDocument::Section& sec) {
  ScenarioModel m;
  m.task = models::parse_task_code(sec.get("task"));
  m.target_fps = sec.get_double("fps");
  const auto& src = input_source(driving_source(m.task));
  // NaN fails every comparison, so each range test names finiteness too.
  if (!std::isfinite(m.target_fps) || m.target_fps <= 0.0 ||
      m.target_fps > src.fps) {
    throw std::invalid_argument(
        "scenario config: fps for " + std::string(models::task_code(m.task)) +
        " must be in (0, " + std::to_string(src.fps) + "] (line " +
        std::to_string(sec.line_of("fps")) + ")");
  }
  if (sec.has("depends_on")) {
    m.depends_on = models::parse_task_code(sec.get("depends_on"));
    m.dependency = parse_dependency(sec.get("dependency"));
    m.trigger_probability = sec.has("trigger_probability")
                                ? sec.get_double("trigger_probability")
                                : 1.0;
    if (!std::isfinite(m.trigger_probability) ||
        m.trigger_probability < 0.0 || m.trigger_probability > 1.0) {
      throw std::invalid_argument(
          "scenario config: trigger_probability must be in [0,1] (line " +
          std::to_string(sec.line_of("trigger_probability")) + ")");
    }
  }
  return m;
}

/// Whole-scenario validations shared by the single-scenario and program
/// parsers: at least one model, no duplicate tasks, dependencies reference
/// active models, data-dependent rates match their upstream.
void validate_parsed_scenario(const UsageScenario& scenario) {
  if (scenario.models.empty()) {
    throw std::invalid_argument(
        "scenario config: at least one [model] section is required");
  }
  std::set<models::TaskId> seen;
  for (const auto& m : scenario.models) {
    if (!seen.insert(m.task).second) {
      throw std::invalid_argument("scenario config: duplicate task " +
                                  std::string(models::task_code(m.task)));
    }
  }
  for (const auto& m : scenario.models) {
    if (m.depends_on && scenario.find(*m.depends_on) == nullptr) {
      throw std::invalid_argument(
          "scenario config: " + std::string(models::task_code(m.task)) +
          " depends on inactive model " +
          std::string(models::task_code(*m.depends_on)));
    }
  }
  validate_dependency_rates(scenario);
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
  const auto doc = util::IniDocument::parse(text);
  const auto& head = doc.section("scenario");

  UsageScenario scenario;
  scenario.name = head.get("name");
  scenario.description = head.get_or("description", "");
  for (const auto* sec : doc.sections("model")) {
    scenario.models.push_back(parse_model_section(*sec));
  }
  validate_parsed_scenario(scenario);
  return scenario;
}

void save_scenario(const UsageScenario& scenario,
                   const std::filesystem::path& path) {
  util::IniDocument::parse(to_config_text(scenario)).save(path);
}

UsageScenario load_scenario(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_scenario: cannot read " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return from_config_text(ss.str());
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
    sec.set_int("seed_offset", static_cast<std::int64_t>(phase.seed_offset));
  }
  return doc.to_string();
}

std::vector<ScenarioProgram> programs_from_document(
    const util::IniDocument& doc) {
  // First pass: collect inline scenario definitions in section order —
  // each [scenario] header owns the [model] sections that follow it.
  // Inline definitions are file-global: every program's phases may
  // reference any of them.
  std::vector<UsageScenario> inline_scenarios;
  for (const auto& sec : doc.all_sections()) {
    if (sec.name == "scenario") {
      UsageScenario s;
      s.name = sec.get("name");
      s.description = sec.get_or("description", "");
      for (const auto& existing : inline_scenarios) {
        if (existing.name == s.name) {
          throw std::invalid_argument(
              "program config: duplicate inline scenario '" + s.name + "'");
        }
      }
      inline_scenarios.push_back(std::move(s));
    } else if (sec.name == "model") {
      if (inline_scenarios.empty()) {
        throw std::invalid_argument(
            "program config: [model] section before any [scenario] (line " +
            std::to_string(sec.line) + ")");
      }
      inline_scenarios.back().models.push_back(parse_model_section(sec));
    }
  }
  for (const auto& s : inline_scenarios) validate_parsed_scenario(s);

  // Second pass: programs, in section order. [phase] and [faults] sections
  // attach to the most recent [program] header; phase references resolve
  // inline definitions before the built-in scenario registries.
  std::vector<ScenarioProgram> programs;
  for (const auto& sec : doc.all_sections()) {
    if (sec.name == "program") {
      ScenarioProgram program;
      program.name = sec.get("name");
      program.description = sec.get_or("description", "");
      program.scheduler = sec.get_or("scheduler", "");
      program.governor = sec.get_or("governor", "");
      program.admission = sec.get_or("admission", "");
      programs.push_back(std::move(program));
    } else if (sec.name == "faults") {
      if (programs.empty()) {
        throw std::invalid_argument(
            "program config: [faults] section before any [program] (line " +
            std::to_string(sec.line) + ")");
      }
      programs.back().faults =
          runtime::parse_fault_section(sec, "program config");
    } else if (sec.name == "phase") {
      if (programs.empty()) {
        throw std::invalid_argument(
            "program config: [phase] section before any [program] (line " +
            std::to_string(sec.line) + ")");
      }
      ScenarioPhase phase;
      const std::string ref = sec.get("scenario");
      const UsageScenario* resolved = nullptr;
      for (const auto& s : inline_scenarios) {
        if (s.name == ref) resolved = &s;
      }
      phase.scenario = resolved != nullptr ? *resolved : scenario_by_name(ref);
      phase.duration_ms = sec.get_double("duration_ms");
      if (!std::isfinite(phase.duration_ms) || phase.duration_ms <= 0.0) {
        throw std::invalid_argument(
            "program config: duration_ms must be finite and > 0 (line " +
            std::to_string(sec.line_of("duration_ms")) + ")");
      }
      if (sec.has("seed_offset")) {
        const std::int64_t off = sec.get_int("seed_offset");
        if (off < 0) {
          throw std::invalid_argument(
              "program config: seed_offset must be >= 0 (line " +
              std::to_string(sec.line_of("seed_offset")) + ")");
        }
        phase.seed_offset = static_cast<std::uint64_t>(off);
      }
      programs.back().phases.push_back(std::move(phase));
    }
  }
  for (const auto& program : programs) validate_program(program);
  return programs;
}

ScenarioProgram program_from_config_text(const std::string& text) {
  const auto doc = util::IniDocument::parse(text);
  doc.section("program");  // exactly one [program]; throws otherwise
  auto programs = programs_from_document(doc);
  return std::move(programs.front());
}

void save_program(const ScenarioProgram& program,
                  const std::filesystem::path& path) {
  util::IniDocument::parse(to_config_text(program)).save(path);
}

ScenarioProgram load_program(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_program: cannot read " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return program_from_config_text(ss.str());
}

}  // namespace xrbench::workload
