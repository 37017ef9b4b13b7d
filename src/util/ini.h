#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace xrbench::util {

/// Minimal INI-style configuration document:
///
///   # comment
///   [section]           ; repeated section names allowed (kept in order)
///   key = value
///
/// The artifact customizes XRBench through text files
/// ("XRbench_evaluation/hw_configs", ".../dataflows" — appendix D.7); this
/// is the equivalent mechanism here, used by hw::load/save and
/// workload::load/save.
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

    bool has(const std::string& key) const;
    /// Returns the value or throws std::out_of_range naming section+key.
    const std::string& get(const std::string& key) const;
    std::string get_or(const std::string& key, std::string fallback) const;
    double get_double(const std::string& key) const;
    std::int64_t get_int(const std::string& key) const;
    bool get_bool(const std::string& key) const;  ///< true/false/1/0/yes/no
    /// Source line of `key` (last occurrence), or 0 when absent/programmatic.
    int line_of(const std::string& key) const;
    void set(const std::string& key, std::string value);
    /// Writes `value` with max_digits10 digits, so parsing it back
    /// reproduces every bit (util::fmt_double_exact).
    void set_double(const std::string& key, double value);
    void set_int(const std::string& key, std::int64_t value);
  };

  /// Parses INI text. Throws std::invalid_argument with a line number on
  /// malformed input (entry before any section, missing '=').
  static IniDocument parse(const std::string& text);

  /// Reads and parses a file. Throws std::runtime_error if unreadable.
  static IniDocument load(const std::filesystem::path& path);

  /// Serializes back to INI text (stable ordering).
  std::string to_string() const;

  /// Writes to a file, creating parent directories.
  void save(const std::filesystem::path& path) const;

  Section& add_section(std::string name);

  /// All sections with the given name, in order.
  std::vector<const Section*> sections(const std::string& name) const;

  /// The single section with this name; throws if absent or duplicated.
  const Section& section(const std::string& name) const;

  bool has_section(const std::string& name) const;

  const std::vector<Section>& all_sections() const { return sections_; }

 private:
  std::vector<Section> sections_;
};

}  // namespace xrbench::util
