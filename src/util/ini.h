#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace xrbench::util {

/// Reads `text` as exactly one finite number that fits in T (double, int,
/// std::int64_t or std::uint64_t). Blanks around the number are allowed.
/// Returns nullopt for anything else: trailing characters, NaN, +-inf,
/// overflow, or a leading '-' on an unsigned T. The one place that turns
/// outside text into a number: config readers, CLI flags and environment
/// variables all go through it.
template <typename T>
std::optional<T> parse_number(const std::string& text);

/// The upper bound of a range with none.
inline constexpr double kUnbounded = std::numeric_limits<double>::max();

/// Minimal INI-style configuration document:
///
///   # comment
///   [section]           ; repeated section names allowed (kept in order)
///   key = value
///
/// The artifact customizes XRBench through text files
/// ("XRbench_evaluation/hw_configs", ".../dataflows" — appendix D.7); this
/// is the equivalent mechanism here, used by hw::load_accelerator and
/// workload::load_scenario / load_program.
///
/// A parsed document knows its source label ("accelerator config",
/// "scenario config", "program config", "fleet config"). Every rejection,
/// from the parser or from a section reader, is a
/// "<source> line N: <problem>" message, where N is the 1-based line of
/// the offending key, or of its section header when no single key is at
/// fault.
class IniDocument {
 public:
  struct Entry {
    std::string key;
    std::string value;
    /// 1-based source line of parsed input (0 for programmatic entries):
    /// consumers raise "line N" diagnostics without re-scanning the text.
    int line = 0;
  };

  struct Section {
    std::string name;
    // Insertion-ordered entries; duplicate keys keep last value.
    std::vector<Entry> entries;
    /// Source line of the [section] header (0 when built programmatically).
    int line = 0;
    /// The document's source label, which every rejection names.
    std::string source = "config";

    bool has(const std::string& key) const;
    /// Returns the value or throws std::out_of_range naming the section's
    /// line.
    const std::string& get(const std::string& key) const;
    std::string get_or(const std::string& key, std::string fallback) const;
    /// `key` as a finite number in [lo, hi], or in (lo, hi] when `lo_open`.
    /// Rejects a non-number or an out-of-range value at the key's line,
    /// stating the allowed range.
    double get_double(const std::string& key,
                      double lo = std::numeric_limits<double>::lowest(),
                      double hi = kUnbounded, bool lo_open = false) const;
    /// `key` as an integer in [lo, hi]; rejects like get_double.
    std::int64_t get_int(
        const std::string& key,
        std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
        std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
    /// `key` as an integer in [0, 2^64 - 1], the full range of a seed.
    std::uint64_t get_uint64(const std::string& key) const;
    bool get_bool(const std::string& key) const;  ///< true/false/1/0/yes/no
    /// `key` read by a name parser (parse_dataflow, scenario_by_name, ...);
    /// a name the parser throws std::invalid_argument for is rejected at
    /// the key's line.
    template <typename Parse>
    auto get_as(const std::string& key, Parse parse) const {
      const std::string& text = get(key);
      try {
        return parse(text);
      } catch (const std::invalid_argument& e) {
        reject(key, e.what());
      }
    }
    /// Throws std::invalid_argument("<source> line N: <problem>"), where N
    /// is `key`'s line, or this section's header line when `key` is absent
    /// (pass "" for a rule that no single key breaks).
    [[noreturn]] void reject(const std::string& key,
                             const std::string& problem) const;
    /// Rejects the first key outside `known` at its own line, as
    /// "unknown [<section>] key '<key>'", so a misspelt key never falls
    /// back to a default without a word.
    void reject_unknown_keys(
        std::initializer_list<std::string_view> known) const;
    void set(const std::string& key, std::string value);
    /// Writes `value` with max_digits10 digits, so parsing it back
    /// reproduces every bit (util::fmt_double_exact).
    void set_double(const std::string& key, double value);
    void set_int(const std::string& key, std::int64_t value);
  };

  /// Parses INI text whose rejections name `source`. Throws
  /// std::invalid_argument with a line number on malformed input (entry
  /// before any section, missing '=', unterminated header).
  static IniDocument parse(const std::string& text,
                           const std::string& source = "config");

  /// Reads and parses a file. Throws std::runtime_error if unreadable.
  static IniDocument load(const std::filesystem::path& path,
                          const std::string& source = "config");

  /// Serializes back to INI text (stable ordering).
  std::string to_string() const;

  Section& add_section(std::string name);

  /// All sections with the given name, in order.
  std::vector<const Section*> sections(const std::string& name) const;

  /// The single section with this name; throws std::out_of_range if absent
  /// or duplicated.
  const Section& section(const std::string& name) const;

  bool has_section(const std::string& name) const;

  /// Rejects the first section whose name is outside `known` at its header
  /// line, as "unknown section [<name>]", so a misspelt section is never
  /// skipped without a word.
  void reject_unknown_sections(
      std::initializer_list<std::string_view> known) const;

  const std::vector<Section>& all_sections() const { return sections_; }

 private:
  std::string source_ = "config";
  std::vector<Section> sections_;
};

}  // namespace xrbench::util
