#include "fleet/fleet_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fleet/fleet_workload.h"
#include "util/ini.h"
#include "workload/scenario_io.h"

namespace xrbench::fleet {
namespace {

[[noreturn]] void reject(const std::string& what, int line) {
  throw std::invalid_argument("fleet config: " + what + " (line " +
                              std::to_string(line) + ")");
}

/// get_double with the key's source line appended to parse failures (the
/// ini layer reports section+key but not where).
double get_double_at(const util::IniDocument::Section& sec,
                     const std::string& key) {
  try {
    return sec.get_double(key);
  } catch (const std::invalid_argument& e) {
    reject(e.what(), sec.line_of(key));
  }
}

std::int64_t get_int_at(const util::IniDocument::Section& sec,
                        const std::string& key) {
  try {
    return sec.get_int(key);
  } catch (const std::invalid_argument& e) {
    reject(e.what(), sec.line_of(key));
  }
}

/// A pool size or session cap, which must lie in [1, kMaxFleetSessions].
std::size_t get_count_at(const util::IniDocument::Section& sec,
                         const std::string& key) {
  const std::int64_t n = get_int_at(sec, key);
  if (n < 1 || static_cast<std::uint64_t>(n) > kMaxFleetSessions) {
    reject(key + " must be in [1, " + std::to_string(kMaxFleetSessions) + "]",
           sec.line_of(key));
  }
  return static_cast<std::size_t>(n);
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_names(const std::string& csv, int line) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    const std::string name = trim(csv.substr(start, end - start));
    if (name.empty()) reject("empty program name in 'programs'", line);
    names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

void parse_fleet_section(const util::IniDocument::Section& sec,
                         FleetConfig& config) {
  for (const auto& entry : sec.entries) {
    const std::string& key = entry.key;
    if (key == "seed") {
      const std::int64_t seed = get_int_at(sec, key);
      if (seed < 0) reject("seed must be >= 0", sec.line_of(key));
      config.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "arrival_rate_per_s") {
      config.arrival_rate_per_s = get_double_at(sec, key);
      if (!std::isfinite(config.arrival_rate_per_s) ||
          config.arrival_rate_per_s <= 0.0) {
        reject("arrival_rate_per_s must be finite and > 0", sec.line_of(key));
      }
    } else if (key == "zipf_s") {
      config.zipf_s = get_double_at(sec, key);
      if (!std::isfinite(config.zipf_s) || config.zipf_s < 0.0) {
        reject("zipf_s must be finite and >= 0", sec.line_of(key));
      }
    } else if (key == "pool_size") {
      config.pool_size = get_count_at(sec, key);
    } else if (key == "arrival_window_ms") {
      config.arrival_window_ms = get_double_at(sec, key);
      if (!std::isfinite(config.arrival_window_ms) ||
          config.arrival_window_ms <= 0.0) {
        reject("arrival_window_ms must be finite and > 0", sec.line_of(key));
      }
    } else if (key == "max_sessions") {
      config.max_sessions = get_count_at(sec, key);
    } else if (key == "admission") {
      config.admission = trim(entry.value);
    } else if (key == "scheduler") {
      config.scheduler = trim(entry.value);
    } else if (key == "governor") {
      config.governor = trim(entry.value);
    } else if (key == "programs") {
      config.programs = split_names(entry.value, sec.line_of(key));
    } else {
      reject("unknown [fleet] key '" + key + "'", entry.line);
    }
  }
}

PriorityClassSpec parse_class_section(
    const util::IniDocument::Section& sec) {
  PriorityClassSpec cls;
  for (const auto& entry : sec.entries) {
    if (entry.key == "weight") {
      cls.weight = get_double_at(sec, entry.key);
      if (!std::isfinite(cls.weight) || cls.weight <= 0.0) {
        reject("class weight must be finite and > 0", sec.line_of(entry.key));
      }
    } else if (entry.key == "wait_budget_ms") {
      cls.wait_budget_ms = get_double_at(sec, entry.key);
      if (!std::isfinite(cls.wait_budget_ms) || cls.wait_budget_ms < 0.0) {
        reject("class wait_budget_ms must be finite and >= 0",
               sec.line_of(entry.key));
      }
    } else {
      reject("unknown [class] key '" + entry.key + "'", entry.line);
    }
  }
  return cls;
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
  const auto doc = util::IniDocument::parse(text);
  if (!doc.has_section("fleet")) {
    throw std::invalid_argument("fleet config: missing [fleet] section");
  }

  FleetSetup setup;
  parse_fleet_section(doc.section("fleet"), setup.config);

  // Sections beyond [fleet]/[class] belong to the inline session-program
  // grammar; anything else is a typo worth a line number.
  bool has_program_sections = false;  // anything the program grammar owns
  double weight_sum = 0.0;
  for (const auto& sec : doc.all_sections()) {
    if (sec.name == "fleet") continue;
    if (sec.name == "class") {
      setup.config.classes.push_back(parse_class_section(sec));
      weight_sum += setup.config.classes.back().weight;
      if (!std::isfinite(weight_sum)) {
        reject("class weights overflow their sum", sec.line);
      }
    } else if (sec.name == "program" || sec.name == "phase" ||
               sec.name == "faults") {
      // A [phase]/[faults] without a [program] must reach the program
      // parser so it is rejected with its source line, not ignored.
      has_program_sections = true;
    } else if (sec.name != "scenario" && sec.name != "model") {
      reject("unexpected [" + sec.name + "] section", sec.line);
    }
  }

  std::vector<workload::ScenarioProgram> inline_programs;
  if (has_program_sections) {
    inline_programs = workload::programs_from_document(doc);
  }

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
      setup.catalog.push_back(found != nullptr
                                  ? *found
                                  : workload::program_by_name(name));
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

void save_fleet(const FleetConfig& config,
                const std::filesystem::path& path) {
  util::IniDocument::parse(to_config_text(config)).save(path);
}

FleetSetup load_fleet(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("fleet config: cannot read " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return fleet_from_config_text(ss.str());
}

}  // namespace xrbench::fleet
