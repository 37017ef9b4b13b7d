#include "hw/config_io.h"

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
using Section = util::IniDocument::Section;

/// Parses the dvfs_levels key, "f1@v1, f2@v2, ...", into a strictly
/// ascending ladder of at most kMaxDvfsLevels finite, positive points.
std::vector<DvfsOperatingPoint> parse_dvfs_levels(const Section& sec) {
  std::vector<DvfsOperatingPoint> levels;
  std::istringstream in(sec.get("dvfs_levels"));
  std::string token;
  while (std::getline(in, token, ',')) {
    if (levels.size() == kMaxDvfsLevels) {
      sec.reject("dvfs_levels", "dvfs_levels must list at most " +
                                    std::to_string(kMaxDvfsLevels) +
                                    " operating points");
    }
    const auto at = token.find('@');
    const auto freq = util::parse_number<double>(token.substr(0, at));
    const auto volt = at == std::string::npos
                          ? std::nullopt
                          : util::parse_number<double>(token.substr(at + 1));
    if (!freq || !volt || *freq <= 0.0 || *volt <= 0.0) {
      sec.reject("dvfs_levels",
                 "dvfs_levels entries must be freq_ghz@voltage_v with "
                 "finite numbers > 0, got '" + token + "'");
    }
    if (!levels.empty() && *freq <= levels.back().freq_ghz) {
      sec.reject("dvfs_levels",
                 "dvfs_levels must be strictly ascending in frequency (" +
                     fmt_double_exact(*freq) + " GHz after " +
                     fmt_double_exact(levels.back().freq_ghz) + " GHz)");
    }
    levels.push_back({*freq, *volt});
  }
  if (levels.empty()) {
    sec.reject("dvfs_levels",
               "dvfs_levels must list at least one operating point");
  }
  return levels;
}

/// Reads the optional DVFS keys of one [sub_accel] section into a DvfsState
/// anchored at `clock_ghz`.
DvfsState parse_dvfs(const Section& sec, double clock_ghz) {
  DvfsState dvfs;
  if (sec.has("dvfs_levels")) {
    dvfs.levels = parse_dvfs_levels(sec);
    if (sec.has("dvfs_nominal")) {
      dvfs.nominal_level = static_cast<std::size_t>(sec.get_int(
          "dvfs_nominal", 0,
          static_cast<std::int64_t>(dvfs.levels.size()) - 1));
    } else {
      // Default: the level whose frequency equals the chip clock.
      std::size_t anchored = dvfs.levels.size();
      for (std::size_t i = 0; i < dvfs.levels.size(); ++i) {
        if (dvfs.levels[i].freq_ghz == clock_ghz) anchored = i;
      }
      if (anchored == dvfs.levels.size()) {
        sec.reject("dvfs_levels",
                   "dvfs_levels has no level at the chip clock; set "
                   "dvfs_nominal explicitly or add a clock-rate level");
      }
      dvfs.nominal_level = anchored;
    }
    if (!dvfs.anchored_at(clock_ghz)) {
      sec.reject("dvfs_levels",
                 "the nominal dvfs level must run at the chip clock (" +
                     fmt_double_exact(clock_ghz) +
                     " GHz) to keep nominal costs bit-identical to the "
                     "fixed-clock path");
    }
  }
  if (sec.has("dvfs_transition_ms")) {
    dvfs.transition_ms = sec.get_double("dvfs_transition_ms", 0.0);
  }
  if (sec.has("dvfs_idle_mw")) {
    dvfs.idle_mw = sec.get_double("dvfs_idle_mw", 0.0);
  }
  return dvfs;
}

/// Parses one [fault_domain] section's `members` key — a comma list of
/// sub-accelerator indices — validating every index against `num_sub_accels`
/// and against `claimed` (a unit may belong to at most one domain).
std::vector<std::size_t> parse_fault_domain(const Section& sec,
                                            std::size_t num_sub_accels,
                                            std::vector<char>& claimed) {
  sec.reject_unknown_keys({"members"});
  std::vector<std::size_t> members;
  std::istringstream in(sec.get("members"));
  std::string token;
  while (std::getline(in, token, ',')) {
    const auto index = util::parse_number<std::int64_t>(token);
    if (!index) {
      sec.reject("members", "fault_domain members entry '" + token +
                                "' is not an integer");
    }
    if (*index < 0 || *index >= static_cast<std::int64_t>(num_sub_accels)) {
      sec.reject("members", "fault_domain member " + std::to_string(*index) +
                                " does not name a [sub_accel] (system has " +
                                std::to_string(num_sub_accels) + ")");
    }
    const auto sa = static_cast<std::size_t>(*index);
    if (claimed[sa] != 0) {
      sec.reject("members", "sub-accelerator " + std::to_string(sa) +
                                " already belongs to a fault domain");
    }
    claimed[sa] = 1;
    members.push_back(sa);
  }
  if (members.empty()) {
    sec.reject("members",
               "fault_domain members must list at least one sub-accelerator");
  }
  return members;
}

AcceleratorSystem from_document(const util::IniDocument& doc) {
  doc.reject_unknown_sections({"chip", "faults", "sub_accel", "fault_domain"});
  const auto& chip = doc.section("chip");
  chip.reject_unknown_keys({"id", "style", "dataflow_desc", "clock_ghz"});

  AcceleratorSystem system;
  system.id = chip.get_or("id", "custom");
  system.style = chip.has("style")
                     ? chip.get_as("style", parse_accel_style)
                     : AccelStyle::kFDA;
  system.dataflow_desc = chip.get_or("dataflow_desc", "");
  const double clock =
      chip.has("clock_ghz")
          ? chip.get_double("clock_ghz", 0.0, util::kUnbounded,
                            /*lo_open=*/true)
          : 1.0;

  if (doc.has_section("faults")) {
    system.faults = runtime::parse_fault_section(doc.section("faults"));
  }

  const auto subs = doc.sections("sub_accel");
  if (subs.empty()) {
    chip.reject("", "at least one [sub_accel] section is required");
  }
  // sram_kib * 1024 must not overflow a signed byte count.
  constexpr std::int64_t kMaxSramKib =
      std::numeric_limits<std::int64_t>::max() / 1024;
  std::size_t index = 0;
  for (const auto* sec : subs) {
    sec->reject_unknown_keys({"dataflow", "num_pes", "noc_gbps",
                              "offchip_gbps", "sram_kib", "dvfs_levels",
                              "dvfs_nominal", "dvfs_transition_ms",
                              "dvfs_idle_mw"});
    costmodel::SubAccelConfig sa;
    sa.id = system.id + "." + std::to_string(index++);
    sa.dataflow = sec->get_as("dataflow", costmodel::parse_dataflow);
    sa.num_pes = sec->get_int("num_pes", 1);
    sa.clock_ghz = clock;
    sa.noc_bytes_per_cycle =
        sec->get_double("noc_gbps", 0.0, util::kUnbounded, true) / clock;
    sa.offchip_bytes_per_cycle =
        sec->get_double("offchip_gbps", 0.0, util::kUnbounded, true) / clock;
    sa.sram_bytes = sec->get_int("sram_kib", 1, kMaxSramKib) * 1024;
    sa.dvfs = parse_dvfs(*sec, clock);
    if (!sa.valid()) {
      // Every key passed its own check, so a bandwidth over- or underflowed
      // when converted to bytes per cycle at the chip clock.
      sec->reject("", "invalid [sub_accel] resources for " + sa.id +
                          ": a bandwidth per clock cycle is out of range");
    }
    system.sub_accels.push_back(std::move(sa));
  }
  std::vector<char> claimed(system.sub_accels.size(), 0);
  for (const auto* sec : doc.sections("fault_domain")) {
    system.fault_domains.push_back(
        parse_fault_domain(*sec, system.sub_accels.size(), claimed));
  }
  return system;
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
  return from_document(
      util::IniDocument::parse(text, "accelerator config"));
}

AcceleratorSystem load_accelerator(const std::filesystem::path& path) {
  return from_document(util::IniDocument::load(path, "accelerator config"));
}

}  // namespace xrbench::hw
