#include "fleet/fleet_io.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "fleet/fleet_workload.h"
#include "runtime/policy_registry.h"
#include "util/ini.h"
#include "workload/scenario_io.h"

namespace xrbench::fleet {
namespace {

using Registry = runtime::PolicyRegistry;
using Section = util::IniDocument::Section;

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_names(const Section& sec) {
  const std::string& csv = sec.get("programs");
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    const std::string name = trim(csv.substr(start, end - start));
    if (name.empty()) {
      sec.reject("programs", "empty program name in 'programs'");
    }
    names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

void parse_fleet_section(const Section& sec, FleetConfig& config) {
  sec.reject_unknown_keys({"seed", "arrival_rate_per_s", "zipf_s",
                           "pool_size", "arrival_window_ms", "max_sessions",
                           "admission", "scheduler", "governor", "programs"});
  constexpr auto kMaxCount = static_cast<std::int64_t>(kMaxFleetSessions);
  for (const auto& entry : sec.entries) {
    const std::string& key = entry.key;
    if (key == "seed") {
      config.seed = sec.get_uint64(key);
    } else if (key == "arrival_rate_per_s") {
      config.arrival_rate_per_s =
          sec.get_double(key, 0.0, util::kUnbounded, /*lo_open=*/true);
    } else if (key == "zipf_s") {
      config.zipf_s = sec.get_double(key, 0.0);
    } else if (key == "pool_size") {
      config.pool_size =
          static_cast<std::size_t>(sec.get_int(key, 1, kMaxCount));
    } else if (key == "arrival_window_ms") {
      config.arrival_window_ms =
          sec.get_double(key, 0.0, util::kUnbounded, /*lo_open=*/true);
    } else if (key == "max_sessions") {
      config.max_sessions =
          static_cast<std::size_t>(sec.get_int(key, 1, kMaxCount));
    } else if (key == "admission") {
      config.admission = sec.get_as(key, Registry::checked_admission);
    } else if (key == "scheduler") {
      config.scheduler = sec.get_as(key, Registry::checked_scheduler);
    } else if (key == "governor") {
      config.governor = sec.get_as(key, Registry::checked_governor);
    } else if (key == "programs") {
      config.programs = split_names(sec);
    }
  }
}

PriorityClassSpec parse_class_section(const Section& sec) {
  sec.reject_unknown_keys({"weight", "wait_budget_ms"});
  PriorityClassSpec cls;
  if (sec.has("weight")) {
    cls.weight =
        sec.get_double("weight", 0.0, util::kUnbounded, /*lo_open=*/true);
  }
  if (sec.has("wait_budget_ms")) {
    cls.wait_budget_ms = sec.get_double("wait_budget_ms", 0.0);
  }
  return cls;
}

FleetSetup fleet_from_document(const util::IniDocument& doc) {
  // Sections beyond [fleet]/[class] belong to the inline session-program
  // grammar, which reads every one of them.
  doc.reject_unknown_sections(
      {"fleet", "class", "program", "faults", "scenario", "model", "phase"});
  if (!doc.has_section("fleet")) {
    throw std::invalid_argument("fleet config: missing [fleet] section");
  }
  const auto& fleet = doc.section("fleet");

  FleetSetup setup;
  parse_fleet_section(fleet, setup.config);

  double weight_sum = 0.0;
  for (const auto* sec : doc.sections("class")) {
    setup.config.classes.push_back(parse_class_section(*sec));
    weight_sum += setup.config.classes.back().weight;
    if (!std::isfinite(weight_sum)) {
      sec->reject("", "class weights overflow their sum");
    }
  }

  std::vector<workload::ScenarioProgram> inline_programs =
      workload::programs_from_document(doc);

  if (!setup.config.programs.empty()) {
    // Named catalog: inline definitions first, then the registry.
    for (const auto& name : setup.config.programs) {
      const workload::ScenarioProgram* found = nullptr;
      for (const auto& program : inline_programs) {
        if (program.name == name) {
          found = &program;
          break;
        }
      }
      if (found == nullptr) {
        try {
          found = &workload::program_by_name(name);
        } catch (const std::invalid_argument& e) {
          fleet.reject("programs", e.what());
        }
      }
      setup.catalog.push_back(*found);
    }
  } else if (!inline_programs.empty()) {
    setup.catalog = std::move(inline_programs);
  } else {
    setup.catalog = resolve_catalog(setup.config);
  }
  for (const auto& program : setup.catalog) {
    if (program.total_duration_ms() <= 0.0) {
      throw std::invalid_argument("fleet config: program '" + program.name +
                                  "' has no duration");
    }
  }

  validate_fleet_config(setup.config);
  return setup;
}

}  // namespace

std::string to_config_text(const FleetConfig& config) {
  util::IniDocument doc;
  auto& fleet = doc.add_section("fleet");
  fleet.set("seed", std::to_string(config.seed));
  fleet.set_double("arrival_rate_per_s", config.arrival_rate_per_s);
  fleet.set_double("zipf_s", config.zipf_s);
  fleet.set_int("pool_size", static_cast<std::int64_t>(config.pool_size));
  fleet.set_double("arrival_window_ms", config.arrival_window_ms);
  fleet.set_int("max_sessions",
                static_cast<std::int64_t>(config.max_sessions));
  fleet.set("admission", config.admission);
  if (!config.scheduler.empty()) fleet.set("scheduler", config.scheduler);
  if (!config.governor.empty()) fleet.set("governor", config.governor);
  if (!config.programs.empty()) {
    std::string joined;
    for (const auto& name : config.programs) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    fleet.set("programs", joined);
  }
  for (const auto& cls : config.classes) {
    auto& sec = doc.add_section("class");
    sec.set_double("weight", cls.weight);
    sec.set_double("wait_budget_ms", cls.wait_budget_ms);
  }
  return doc.to_string();
}

FleetSetup fleet_from_config_text(const std::string& text) {
  return fleet_from_document(util::IniDocument::parse(text, "fleet config"));
}

FleetSetup load_fleet(const std::filesystem::path& path) {
  return fleet_from_document(util::IniDocument::load(path, "fleet config"));
}

}  // namespace xrbench::fleet
