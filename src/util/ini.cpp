#include "util/ini.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "util/table.h"

namespace xrbench::util {
namespace {

constexpr const char* kBlanks = " \t\n\v\f\r";

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(kBlanks);
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(kBlanks) - b + 1);
}

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

[[noreturn]] void reject_line(const std::string& source, int line,
                              const std::string& problem) {
  throw std::invalid_argument(source + " line " + std::to_string(line) +
                              ": " + problem);
}

/// "in [lo, hi]", "in (lo, hi]", ">= lo" or "> lo": the range a reader
/// enforces.
template <typename T>
std::string range_text(T lo, T hi, bool lo_open, T unbounded) {
  auto fmt = [](T v) {
    if constexpr (std::is_floating_point_v<T>) return fmt_double_exact(v);
    else return std::to_string(v);
  };
  if (hi == unbounded) return (lo_open ? "> " : ">= ") + fmt(lo);
  return (lo_open ? "in (" : "in [") + fmt(lo) + ", " + fmt(hi) + "]";
}

}  // namespace

template <typename T>
std::optional<T> parse_number(const std::string& text) {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, int> ||
                std::is_same_v<T, std::int64_t> ||
                std::is_same_v<T, std::uint64_t>);
  std::size_t pos = 0;
  T value{};
  try {
    if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &pos);
      if (!std::isfinite(value)) return std::nullopt;
    } else if constexpr (std::is_same_v<T, int>) {
      value = std::stoi(text, &pos);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      value = std::stoll(text, &pos);
    } else {
      // std::stoull wraps a leading '-' round to a huge value.
      const auto first = text.find_first_not_of(kBlanks);
      if (first != std::string::npos && text[first] == '-') {
        return std::nullopt;
      }
      value = std::stoull(text, &pos);
    }
  } catch (const std::logic_error&) {  // no number, or out of range
    return std::nullopt;
  }
  if (text.find_first_not_of(kBlanks, pos) != std::string::npos) {
    return std::nullopt;
  }
  return value;
}

template std::optional<double> parse_number<double>(const std::string&);
template std::optional<int> parse_number<int>(const std::string&);
template std::optional<std::int64_t> parse_number<std::int64_t>(
    const std::string&);
template std::optional<std::uint64_t> parse_number<std::uint64_t>(
    const std::string&);

bool IniDocument::Section::has(const std::string& key) const {
  for (const auto& e : entries) {
    if (e.key == key) return true;
  }
  return false;
}

const std::string& IniDocument::Section::get(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& e : entries) {
    if (e.key == key) found = &e.value;  // last wins
  }
  if (found == nullptr) {
    throw std::out_of_range(source + " line " + std::to_string(line) +
                            ": missing key '" + key + "' in [" + name + "]");
  }
  return *found;
}

void IniDocument::Section::reject(const std::string& key,
                                  const std::string& problem) const {
  int at = line;
  for (const auto& e : entries) {
    if (e.key == key) at = e.line;  // last wins, matching get()
  }
  reject_line(source, at, problem);
}

void IniDocument::Section::reject_unknown_keys(
    std::initializer_list<std::string_view> known) const {
  for (const auto& e : entries) {
    if (std::find(known.begin(), known.end(), e.key) == known.end()) {
      reject_line(source, e.line,
                  "unknown [" + name + "] key '" + e.key + "'");
    }
  }
}

std::string IniDocument::Section::get_or(const std::string& key,
                                         std::string fallback) const {
  return has(key) ? get(key) : std::move(fallback);
}

double IniDocument::Section::get_double(const std::string& key, double lo,
                                        double hi, bool lo_open) const {
  const std::string& v = get(key);
  const auto value = parse_number<double>(v);
  if (!value) reject(key, key + " is not a number: '" + v + "'");
  if (*value < lo || (lo_open && *value == lo) || *value > hi) {
    reject(key, key + " must be " + range_text(lo, hi, lo_open, kUnbounded) +
                    ", got '" + v + "'");
  }
  return *value;
}

std::int64_t IniDocument::Section::get_int(const std::string& key,
                                           std::int64_t lo,
                                           std::int64_t hi) const {
  const std::string& v = get(key);
  const auto value = parse_number<std::int64_t>(v);
  if (!value) reject(key, key + " is not an integer: '" + v + "'");
  if (*value < lo || *value > hi) {
    reject(key, key + " must be " +
                    range_text(lo, hi, false,
                               std::numeric_limits<std::int64_t>::max()) +
                    ", got '" + v + "'");
  }
  return *value;
}

std::uint64_t IniDocument::Section::get_uint64(const std::string& key) const {
  const std::string& v = get(key);
  const auto value = parse_number<std::uint64_t>(v);
  if (!value) reject(key, key + " is not a non-negative integer: '" + v + "'");
  return *value;
}

bool IniDocument::Section::get_bool(const std::string& key) const {
  const std::string v = lower(trim(get(key)));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  reject(key, key + " is not a boolean: '" + get(key) + "'");
}

void IniDocument::Section::set(const std::string& key, std::string value) {
  for (auto& e : entries) {
    if (e.key == key) {
      e.value = std::move(value);
      return;
    }
  }
  entries.push_back(Entry{key, std::move(value), 0});
}

void IniDocument::Section::set_double(const std::string& key, double value) {
  set(key, fmt_double_exact(value));
}

void IniDocument::Section::set_int(const std::string& key,
                                   std::int64_t value) {
  set(key, std::to_string(value));
}

IniDocument IniDocument::parse(const std::string& text,
                               const std::string& source) {
  IniDocument doc;
  doc.source_ = source;
  Section* current = nullptr;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = trim(raw);
    // Strip comments (full-line or trailing, '#' and ';').
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = trim(line.substr(0, comment));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        reject_line(source, line_no, "unterminated section header");
      }
      current = &doc.add_section(trim(line.substr(1, line.size() - 2)));
      current->line = line_no;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      reject_line(source, line_no, "expected 'key = value'");
    }
    if (current == nullptr) {
      reject_line(source, line_no, "entry before any section");
    }
    // Not Section::set: duplicate keys must record the *latest* line so
    // reject() names the line of get()'s last-wins value.
    const std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    bool replaced = false;
    for (auto& e : current->entries) {
      if (e.key == key) {
        e.value = std::move(value);
        e.line = line_no;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      current->entries.push_back(Entry{key, std::move(value), line_no});
    }
  }
  return doc;
}

IniDocument IniDocument::load(const std::filesystem::path& path,
                              const std::string& source) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(source + ": cannot read " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), source);
}

std::string IniDocument::to_string() const {
  std::ostringstream os;
  for (const auto& sec : sections_) {
    os << '[' << sec.name << "]\n";
    for (const auto& e : sec.entries) {
      os << e.key << " = " << e.value << '\n';
    }
    os << '\n';
  }
  return os.str();
}

IniDocument::Section& IniDocument::add_section(std::string name) {
  sections_.push_back(Section{std::move(name), {}, 0, source_});
  return sections_.back();
}

std::vector<const IniDocument::Section*> IniDocument::sections(
    const std::string& name) const {
  std::vector<const Section*> out;
  for (const auto& sec : sections_) {
    if (sec.name == name) out.push_back(&sec);
  }
  return out;
}

const IniDocument::Section& IniDocument::section(
    const std::string& name) const {
  const auto matches = sections(name);
  if (matches.empty()) {
    throw std::out_of_range(source_ + ": missing section [" + name + "]");
  }
  if (matches.size() > 1) {
    throw std::out_of_range(source_ + " line " +
                            std::to_string(matches[1]->line) +
                            ": duplicated section [" + name + "]");
  }
  return *matches.front();
}

bool IniDocument::has_section(const std::string& name) const {
  return !sections(name).empty();
}

void IniDocument::reject_unknown_sections(
    std::initializer_list<std::string_view> known) const {
  for (const auto& sec : sections_) {
    if (std::find(known.begin(), known.end(), sec.name) == known.end()) {
      reject_line(source_, sec.line, "unknown section [" + sec.name + "]");
    }
  }
}

}  // namespace xrbench::util
