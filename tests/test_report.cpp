#include "core/report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/csv.h"

namespace xrbench::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static const Harness& harness() {
    static const Harness h = [] {
      HarnessOptions opt;
      opt.dynamic_trials = 2;
      return Harness(hw::make_accelerator('J', 4096), opt);
    }();
    return h;
  }

  static const SuitePointScore& outcome() {
    static const SuitePointScore out = harness().run_suite();
    return out;
  }

  /// Suite scenario `s`'s final trial, re-run.
  static runtime::ScenarioRunResult last_run(std::size_t s) {
    return harness().run_once(
        workload::benchmark_suite()[s],
        last_trial_seed(harness().options(), outcome().trials[s]));
  }

  std::filesystem::path tmp(const std::string& name) const {
    return std::filesystem::temp_directory_path() / name;
  }
};

TEST_F(ReportTest, BenchmarkReportMentionsEveryScenario) {
  std::ostringstream os;
  print_benchmark_report(os, outcome());
  const std::string s = os.str();
  for (const auto& scenario : workload::benchmark_suite()) {
    EXPECT_NE(s.find(scenario.name), std::string::npos) << scenario.name;
  }
  EXPECT_NE(s.find("XRBench SCORE"), std::string::npos);
  EXPECT_NE(s.find("accelerator J"), std::string::npos);
}

TEST_F(ReportTest, ScenarioReportListsModels) {
  std::ostringstream os;
  print_scenario_report(os, outcome().score.scenarios.back(),  // VR Gaming
                        outcome().trials.back(), last_run(6));
  const std::string s = os.str();
  EXPECT_NE(s.find("HT"), std::string::npos);
  EXPECT_NE(s.find("ES"), std::string::npos);
  EXPECT_NE(s.find("GE"), std::string::npos);
  EXPECT_NE(s.find("Scenario score"), std::string::npos);
}

TEST_F(ReportTest, TimelineHasOneLanePerSubAccel) {
  std::ostringstream os;
  print_timeline(os, last_run(5), 300.0, 5.0);
  const std::string s = os.str();
  EXPECT_NE(s.find("sub-accel 0"), std::string::npos);
  EXPECT_NE(s.find("sub-accel 1"), std::string::npos);
  EXPECT_EQ(s.find("sub-accel 2"), std::string::npos);  // J has 2 partitions
}

TEST_F(ReportTest, TimelineShowsExecutions) {
  std::ostringstream os;
  print_timeline(os, last_run(5));  // AR Gaming
  const std::string s = os.str();
  // AR gaming runs HT / DE / PD: at least one glyph of each family should
  // appear in a 600 ms window on a busy 4K system.
  EXPECT_NE(s.find('P'), std::string::npos);
  EXPECT_NE(s.find('H'), std::string::npos);
}

TEST_F(ReportTest, InferenceLogCsvRoundTrips) {
  const auto path = tmp("xrbench_log.csv");
  const auto run = last_run(0);
  write_inference_log_csv(path, run);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto rows = util::parse_csv(ss.str());
  ASSERT_GT(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "task");
  std::size_t records = 0;
  for (const auto& m : run.per_model) {
    records += m.records.size();
  }
  EXPECT_EQ(rows.size() - 1, records);
  std::filesystem::remove(path);
}

TEST_F(ReportTest, ScoresCsvHasAverageRow) {
  const auto path = tmp("xrbench_scores.csv");
  write_scores_csv(path, outcome());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto rows = util::parse_csv(ss.str());
  // header + 7 scenarios + AVERAGE
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows.back()[2], "AVERAGE");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace xrbench::core
