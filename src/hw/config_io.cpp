#include "hw/config_io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "runtime/fault_plan.h"
#include "util/ini.h"
#include "util/table.h"

namespace xrbench::hw {

namespace {

/// Exact-round-trip formatting for every key the cost model reads: clocks,
/// bandwidths and DVFS ladders feed the bit-identity contract, and the
/// anchored_at check compares the parsed nominal frequency to the parsed
/// clock with exact equality — a lower-precision clock write would make the
/// library reject its own output for non-short-decimal clocks.
using util::fmt_double_exact;

[[noreturn]] void config_error(int line, const std::string& message) {
  throw std::invalid_argument("accelerator config line " +
                              std::to_string(line) + ": " + message);
}

/// Reads `key` of `sec` as a finite number > 0, rejecting NaN, +-inf and
/// non-positive values with the key's source line.
double positive_double(const util::IniDocument::Section& sec,
                       const std::string& key) {
  const double v = sec.get_double(key);
  if (!std::isfinite(v) || v <= 0.0) {
    config_error(sec.line_of(key),
                 key + " must be a finite number > 0, got '" + sec.get(key) +
                     "'");
  }
  return v;
}

/// Reads `key` of `sec` as a finite number >= 0, rejecting NaN, +-inf and
/// negative values with the key's source line.
double non_negative_double(const util::IniDocument::Section& sec,
                           const std::string& key) {
  const double v = sec.get_double(key);
  if (!std::isfinite(v) || v < 0.0) {
    config_error(sec.line_of(key),
                 key + " must be a finite number >= 0, got '" + sec.get(key) +
                     "'");
  }
  return v;
}

/// Parses "f1@v1, f2@v2, ..." into an operating-point list, enforcing a
/// strictly-ascending positive V/f ladder of at most kMaxDvfsLevels points.
/// `line` is the source line of the dvfs_levels key, reported in every
/// rejection.
std::vector<DvfsOperatingPoint> parse_dvfs_levels(const std::string& text,
                                                  int line) {
  std::vector<DvfsOperatingPoint> levels;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (levels.size() == kMaxDvfsLevels) {
      config_error(line, "dvfs_levels must list at most " +
                             std::to_string(kMaxDvfsLevels) +
                             " operating points");
    }
    const auto at = token.find('@');
    if (at == std::string::npos) {
      config_error(line,
                   "dvfs_levels entries must be freq_ghz@voltage_v, got '" +
                       token + "'");
    }
    DvfsOperatingPoint op;
    try {
      std::size_t fpos = 0, vpos = 0;
      const std::string fstr = token.substr(0, at);
      const std::string vstr = token.substr(at + 1);
      op.freq_ghz = std::stod(fstr, &fpos);
      op.voltage_v = std::stod(vstr, &vpos);
      if (fstr.find_first_not_of(" \t", fpos) != std::string::npos ||
          vstr.find_first_not_of(" \t", vpos) != std::string::npos) {
        throw std::invalid_argument("trailing characters");
      }
    } catch (const std::exception&) {
      config_error(line, "dvfs_levels entry '" + token + "' is not numeric");
    }
    if (!std::isfinite(op.freq_ghz) || op.freq_ghz <= 0.0 ||
        !std::isfinite(op.voltage_v) || op.voltage_v <= 0.0) {
      config_error(line, "dvfs_levels frequencies and voltages must be "
                         "finite and > 0");
    }
    if (!levels.empty() && op.freq_ghz <= levels.back().freq_ghz) {
      config_error(line,
                   "dvfs_levels must be strictly ascending in frequency (" +
                       fmt_double_exact(op.freq_ghz) + " GHz after " +
                       fmt_double_exact(levels.back().freq_ghz) + " GHz)");
    }
    levels.push_back(op);
  }
  if (levels.empty()) {
    config_error(line, "dvfs_levels must list at least one operating point");
  }
  return levels;
}

/// Reads the optional DVFS keys of one [sub_accel] section into a DvfsState
/// anchored at `clock_ghz`.
DvfsState parse_dvfs(const util::IniDocument::Section& sec, double clock_ghz) {
  DvfsState dvfs;
  if (sec.has("dvfs_levels")) {
    const int line = sec.line_of("dvfs_levels");
    dvfs.levels = parse_dvfs_levels(sec.get("dvfs_levels"), line);
    if (sec.has("dvfs_nominal")) {
      const std::int64_t nominal = sec.get_int("dvfs_nominal");
      if (nominal < 0 ||
          nominal >= static_cast<std::int64_t>(dvfs.levels.size())) {
        config_error(sec.line_of("dvfs_nominal"),
                     "dvfs_nominal must index a dvfs_levels entry (0.." +
                         std::to_string(dvfs.levels.size() - 1) + ")");
      }
      dvfs.nominal_level = static_cast<std::size_t>(nominal);
    } else {
      // Default: the level whose frequency equals the chip clock.
      std::size_t anchored = dvfs.levels.size();
      for (std::size_t i = 0; i < dvfs.levels.size(); ++i) {
        if (dvfs.levels[i].freq_ghz == clock_ghz) anchored = i;
      }
      if (anchored == dvfs.levels.size()) {
        config_error(line,
                     "dvfs_levels has no level at the chip clock; set "
                     "dvfs_nominal explicitly or add a clock-rate level");
      }
      dvfs.nominal_level = anchored;
    }
    if (!dvfs.anchored_at(clock_ghz)) {
      config_error(line,
                   "the nominal dvfs level must run at the chip clock (" +
                       fmt_double_exact(clock_ghz) +
                       " GHz) to keep nominal costs bit-identical to the "
                       "fixed-clock path");
    }
  }
  if (sec.has("dvfs_transition_ms")) {
    dvfs.transition_ms = non_negative_double(sec, "dvfs_transition_ms");
  }
  if (sec.has("dvfs_idle_mw")) {
    dvfs.idle_mw = non_negative_double(sec, "dvfs_idle_mw");
  }
  return dvfs;
}

/// Parses one [fault_domain] section's `members` key — a comma list of
/// sub-accelerator indices — validating every index against `num_sub_accels`
/// and against `claimed` (a unit may belong to at most one domain). All
/// rejections carry the 1-based source line of the members key, matching
/// the [faults]/dvfs error convention.
std::vector<std::size_t> parse_fault_domain(
    const util::IniDocument::Section& sec, std::size_t num_sub_accels,
    std::vector<char>& claimed) {
  if (!sec.has("members")) {
    throw std::invalid_argument(
        "accelerator config: [fault_domain] requires a members key");
  }
  const int line = sec.line_of("members");
  auto fail = [line](const std::string& msg) {
    config_error(line, msg);
  };
  std::vector<std::size_t> members;
  std::istringstream in(sec.get("members"));
  std::string token;
  while (std::getline(in, token, ',')) {
    std::int64_t index = 0;
    try {
      std::size_t pos = 0;
      index = std::stoll(token, &pos);
      if (token.find_first_not_of(" \t", pos) != std::string::npos) {
        throw std::invalid_argument("trailing characters");
      }
    } catch (const std::exception&) {
      fail("fault_domain members entry '" + token + "' is not an integer");
    }
    if (index < 0 || index >= static_cast<std::int64_t>(num_sub_accels)) {
      fail("fault_domain member " + std::to_string(index) +
           " does not name a [sub_accel] (system has " +
           std::to_string(num_sub_accels) + ")");
    }
    const auto sa = static_cast<std::size_t>(index);
    if (claimed[sa] != 0) {
      fail("sub-accelerator " + std::to_string(index) +
           " already belongs to a fault domain");
    }
    claimed[sa] = 1;
    members.push_back(sa);
  }
  if (members.empty()) {
    fail("fault_domain members must list at least one sub-accelerator");
  }
  return members;
}

}  // namespace

AccelStyle parse_accel_style(const std::string& name) {
  if (name == "FDA") return AccelStyle::kFDA;
  if (name == "SFDA") return AccelStyle::kSFDA;
  if (name == "HDA") return AccelStyle::kHDA;
  throw std::invalid_argument("parse_accel_style: unknown style '" + name +
                              "'");
}

std::string to_config_text(const AcceleratorSystem& system) {
  util::IniDocument doc;
  auto& chip = doc.add_section("chip");
  chip.set("id", system.id);
  chip.set("style", accel_style_name(system.style));
  chip.set("dataflow_desc", system.dataflow_desc);
  if (!system.sub_accels.empty()) {
    chip.set("clock_ghz",
             fmt_double_exact(system.sub_accels.front().clock_ghz));
  }
  // Optional [faults] section right after [chip]; a default spec writes
  // nothing, keeping fault-free configs byte-identical to pre-fault output.
  runtime::write_fault_section(doc, system.faults);
  for (const auto& sa : system.sub_accels) {
    auto& sec = doc.add_section("sub_accel");
    sec.set("dataflow", costmodel::dataflow_name(sa.dataflow));
    sec.set_int("num_pes", sa.num_pes);
    sec.set("noc_gbps",
            fmt_double_exact(sa.noc_bytes_per_cycle * sa.clock_ghz));
    sec.set("offchip_gbps",
            fmt_double_exact(sa.offchip_bytes_per_cycle * sa.clock_ghz));
    sec.set_int("sram_kib", sa.sram_bytes / 1024);
    if (!sa.dvfs.levels.empty()) {
      std::string ladder;
      for (const auto& op : sa.dvfs.levels) {
        if (!ladder.empty()) ladder += ", ";
        ladder += fmt_double_exact(op.freq_ghz) + "@" + fmt_double_exact(op.voltage_v);
      }
      sec.set("dvfs_levels", ladder);
      sec.set_int("dvfs_nominal",
                  static_cast<std::int64_t>(sa.dvfs.nominal_level));
    }
    if (sa.dvfs.transition_ms != 0.0) {
      sec.set("dvfs_transition_ms", fmt_double_exact(sa.dvfs.transition_ms));
    }
    if (sa.dvfs.idle_mw != 0.0) {
      sec.set("dvfs_idle_mw", fmt_double_exact(sa.dvfs.idle_mw));
    }
  }
  // Optional [fault_domain] sections after the units they reference; no
  // domains writes nothing, keeping pre-domain configs byte-identical.
  for (const auto& domain : system.fault_domains) {
    auto& sec = doc.add_section("fault_domain");
    std::string members;
    for (std::size_t sa : domain) {
      if (!members.empty()) members += ", ";
      members += std::to_string(sa);
    }
    sec.set("members", members);
  }
  return doc.to_string();
}

AcceleratorSystem from_config_text(const std::string& text) {
  const auto doc = util::IniDocument::parse(text);
  const auto& chip = doc.section("chip");

  AcceleratorSystem system;
  system.id = chip.get_or("id", "custom");
  system.style = parse_accel_style(chip.get_or("style", "FDA"));
  system.dataflow_desc = chip.get_or("dataflow_desc", "");
  const double clock =
      chip.has("clock_ghz") ? positive_double(chip, "clock_ghz") : 1.0;

  if (doc.has_section("faults")) {
    system.faults =
        runtime::parse_fault_section(doc.section("faults"), "accelerator config");
  }

  const auto subs = doc.sections("sub_accel");
  if (subs.empty()) {
    throw std::invalid_argument(
        "accelerator config: at least one [sub_accel] section is required");
  }
  std::size_t index = 0;
  for (const auto* sec : subs) {
    costmodel::SubAccelConfig sa;
    sa.id = system.id + "." + std::to_string(index++);
    sa.dataflow = costmodel::parse_dataflow(sec->get("dataflow"));
    sa.num_pes = sec->get_int("num_pes");
    if (sa.num_pes <= 0) {
      config_error(sec->line_of("num_pes"), "num_pes must be > 0");
    }
    sa.clock_ghz = clock;
    sa.noc_bytes_per_cycle = positive_double(*sec, "noc_gbps") / clock;
    sa.offchip_bytes_per_cycle = positive_double(*sec, "offchip_gbps") / clock;
    // Checked before the multiply: a signed overflow is undefined.
    constexpr std::int64_t kMaxSramKib =
        std::numeric_limits<std::int64_t>::max() / 1024;
    const std::int64_t sram_kib = sec->get_int("sram_kib");
    if (sram_kib <= 0 || sram_kib > kMaxSramKib) {
      config_error(sec->line_of("sram_kib"),
                   "sram_kib must be in 1.." + std::to_string(kMaxSramKib));
    }
    sa.sram_bytes = sram_kib * 1024;
    sa.dvfs = parse_dvfs(*sec, clock);
    if (!sa.valid()) {
      // Every key passed its own check, so a bandwidth over- or underflowed
      // when converted to bytes per cycle at the chip clock.
      config_error(sec->line, "invalid [sub_accel] resources for " + sa.id +
                                  ": a bandwidth per clock cycle is out of "
                                  "range");
    }
    system.sub_accels.push_back(std::move(sa));
  }
  const auto domains = doc.sections("fault_domain");
  if (!domains.empty()) {
    std::vector<char> claimed(system.sub_accels.size(), 0);
    for (const auto* sec : domains) {
      system.fault_domains.push_back(
          parse_fault_domain(*sec, system.sub_accels.size(), claimed));
    }
  }
  return system;
}

void save_accelerator(const AcceleratorSystem& system,
                      const std::filesystem::path& path) {
  util::IniDocument::parse(to_config_text(system)).save(path);
}

AcceleratorSystem load_accelerator(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_accelerator: cannot read " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return from_config_text(ss.str());
}

}  // namespace xrbench::hw
