// Seeded mutation fuzzer over the four INI front ends (accelerator,
// scenario, program, fleet). Each iteration replaces one value of a valid
// seed config with a hostile token. The contract: either the mutated text
// is accepted, and writing it, then parsing and writing that output, gives
// the same text both times; or the parse throws std::invalid_argument or
// std::out_of_range whose message reads "<source> line N: ..." with N a
// line of the file. One iteration in eight misspells a section header
// instead, which every front end must reject at that header's line.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_io.h"
#include "hw/config_io.h"
#include "workload/scenario_io.h"

namespace xrbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return text;
}

struct FrontEnd {
  std::string source;  ///< The label every rejection must start with.
  std::string seed;    ///< A valid config.
  /// Parses a config and writes it back.
  std::function<std::string(const std::string&)> round_trip;
};

std::vector<FrontEnd> front_ends() {
  auto accel = hw::with_default_dvfs(hw::make_accelerator('M', 8192));
  accel.faults.transient_rate = 0.05;
  accel.faults.outage_rate_per_s = 0.5;
  accel.faults.outage_ms = 20.0;
  accel.faults.throttle_rate_per_s = 1.0;
  accel.faults.throttle_ms = 15.0;
  accel.faults.throttle_max_level = 1;
  accel.faults.max_retries = 2;
  accel.faults.retry_backoff_ms = 2.0;
  accel.faults.checkpoint = true;
  accel.faults.checkpoint_overhead_ms = 0.5;
  accel.fault_domains = {{0, 1}, {2, 3}};

  const workload::UsageScenario* dynamic = nullptr;
  for (const auto& s : workload::benchmark_suite()) {
    if (dynamic == nullptr && workload::is_dynamic_scenario(s)) dynamic = &s;
  }
  EXPECT_NE(dynamic, nullptr);

  // The fleet writer names its catalog and inlines no program, so the
  // fleet seed drops fleet.ini's inline one and keeps the registered names.
  const std::string configs = XRBENCH_SOURCE_DIR "/examples/configs/";
  std::string fleet = read_file(configs + "fleet.ini");
  fleet = fleet.substr(0, fleet.find("\n[program]") + 1);
  const std::string inline_name = "Quick Glance, ";
  fleet.erase(fleet.find(inline_name), inline_name.size());

  return {
      {"accelerator config", hw::to_config_text(accel),
       [](const std::string& text) {
         return hw::to_config_text(hw::from_config_text(text));
       }},
      {"scenario config", workload::to_config_text(*dynamic),
       [](const std::string& text) {
         return workload::to_config_text(workload::from_config_text(text));
       }},
      {"program config", read_file(configs + "handoff_program.ini"),
       [](const std::string& text) {
         return workload::to_config_text(
             workload::program_from_config_text(text));
       }},
      {"fleet config", fleet,
       [](const std::string& text) {
         return fleet::to_config_text(
             fleet::fleet_from_config_text(text).config);
       }},
  };
}

/// Checks that `message` reads "<source> line N: ..." with N in
/// [1, num_lines].
void expect_line_diagnostic(const std::string& message,
                            const std::string& source,
                            std::size_t num_lines) {
  const std::string prefix = source + " line ";
  ASSERT_EQ(message.compare(0, prefix.size(), prefix), 0) << message;
  std::size_t pos = prefix.size();
  std::size_t line = 0;
  while (pos < message.size() && message[pos] >= '0' && message[pos] <= '9') {
    line = line * 10 + static_cast<std::size_t>(message[pos++] - '0');
  }
  EXPECT_GE(line, 1u) << message;
  EXPECT_LE(line, num_lines) << message;
  EXPECT_EQ(message.compare(pos, 2, ": "), 0) << message;
}

TEST(ConfigFuzz, MutatedValuesRoundTripOrNameTheirLine) {
  const std::vector<std::string> tokens = {
      "",           "q@r!",       "nan",
      "inf",        "-inf",       "1e400",
      "1e-400",     "-1",         "0",
      "4294967297", "99999999999999999999", "1e12",
      "12abc",      "1, 2, 3",    "HT",
      "Nope",
  };
  const auto fronts = front_ends();
  for (const auto& front : fronts) {
    ASSERT_EQ(front.round_trip(front.round_trip(front.seed)),
              front.round_trip(front.seed))
        << front.source;
  }

  std::mt19937_64 rng(23);
  int accepted = 0;
  int rejected = 0;
  int renamed = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const auto& front = fronts[rng() % fronts.size()];
    auto lines = split_lines(front.seed);
    if (rng() % 8 == 0) {
      // Swap two adjacent, different letters of one header's name.
      std::vector<std::size_t> headers;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!lines[i].empty() && lines[i][0] == '[') headers.push_back(i);
      }
      const std::size_t target = headers[rng() % headers.size()];
      std::string name = lines[target].substr(1, lines[target].size() - 2);
      std::size_t at = rng() % (name.size() - 1);
      while (name[at] == name[at + 1]) at = (at + 1) % (name.size() - 1);
      std::swap(name[at], name[at + 1]);
      lines[target] = "[" + name + "]";
      const std::string expected = front.source + " line " +
                                   std::to_string(target + 1) +
                                   ": unknown section [" + name + "]";
      try {
        front.round_trip(join_lines(lines));
        ADD_FAILURE() << front.source << " accepted " << lines[target];
      } catch (const std::exception& e) {
        EXPECT_EQ(e.what(), expected);
      }
      ++renamed;
      continue;
    }
    std::vector<std::size_t> values;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find('=') != std::string::npos && lines[i][0] != '#') {
        values.push_back(i);
      }
    }
    const std::size_t target = values[rng() % values.size()];
    const std::string& token = tokens[rng() % tokens.size()];
    lines[target] = lines[target].substr(0, lines[target].find('=') + 1) +
                    " " + token;
    const std::string mutated = join_lines(lines);
    SCOPED_TRACE(front.source + ", line " + std::to_string(target + 1) +
                 " = '" + token + "'");

    std::string written;
    try {
      written = front.round_trip(mutated);
    } catch (const std::invalid_argument& e) {
      expect_line_diagnostic(e.what(), front.source, lines.size());
      ++rejected;
      continue;
    } catch (const std::out_of_range& e) {
      expect_line_diagnostic(e.what(), front.source, lines.size());
      ++rejected;
      continue;
    }
    EXPECT_EQ(front.round_trip(written), written);
    ++accepted;
  }
  // Every outcome occurs, or the fuzzer is not exercising the contract.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_GT(renamed, 100);
}

}  // namespace
}  // namespace xrbench
