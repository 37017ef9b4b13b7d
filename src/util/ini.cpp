#include "util/ini.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/table.h"

namespace xrbench::util {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

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
    throw std::out_of_range("ini: missing key '" + key + "' in section [" +
                            name + "]");
  }
  return *found;
}

int IniDocument::Section::line_of(const std::string& key) const {
  int line = 0;
  for (const auto& e : entries) {
    if (e.key == key) line = e.line;  // last wins, matching get()
  }
  return line;
}

std::string IniDocument::Section::get_or(const std::string& key,
                                         std::string fallback) const {
  return has(key) ? get(key) : std::move(fallback);
}

double IniDocument::Section::get_double(const std::string& key) const {
  const std::string& v = get(key);
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (trim(v.substr(pos)).empty()) return d;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("ini: key '" + key + "' in section [" + name +
                              "] is not a number: '" + v + "'");
}

std::int64_t IniDocument::Section::get_int(const std::string& key) const {
  const std::string& v = get(key);
  try {
    std::size_t pos = 0;
    const std::int64_t i = std::stoll(v, &pos);
    if (trim(v.substr(pos)).empty()) return i;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("ini: key '" + key + "' in section [" + name +
                              "] is not an integer: '" + v + "'");
}

bool IniDocument::Section::get_bool(const std::string& key) const {
  const std::string v = lower(trim(get(key)));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("ini: key '" + key + "' in section [" + name +
                              "] is not a boolean: '" + v + "'");
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

IniDocument IniDocument::parse(const std::string& text) {
  IniDocument doc;
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
        throw std::invalid_argument("ini: unterminated section header at line " +
                                    std::to_string(line_no));
      }
      current = &doc.add_section(trim(line.substr(1, line.size() - 2)));
      current->line = line_no;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("ini: expected 'key = value' at line " +
                                  std::to_string(line_no));
    }
    if (current == nullptr) {
      throw std::invalid_argument("ini: entry before any section at line " +
                                  std::to_string(line_no));
    }
    // Not Section::set: duplicate keys must record the *latest* line so
    // line_of() agrees with get()'s last-wins value.
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

IniDocument IniDocument::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ini: cannot read " + path.string());
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
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

void IniDocument::save(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("ini: cannot write " + path.string());
  }
  out << to_string();
}

IniDocument::Section& IniDocument::add_section(std::string name) {
  sections_.push_back(Section{std::move(name), {}, 0});
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
    throw std::out_of_range("ini: missing section [" + name + "]");
  }
  if (matches.size() > 1) {
    throw std::out_of_range("ini: duplicated section [" + name + "]");
  }
  return *matches.front();
}

bool IniDocument::has_section(const std::string& name) const {
  return !sections(name).empty();
}

}  // namespace xrbench::util
