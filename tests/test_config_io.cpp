#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/harness.h"
#include "hw/config_io.h"
#include "workload/scenario_io.h"

namespace xrbench {
namespace {

TEST(HwConfigIo, RoundTripsTable5Designs) {
  for (char id : hw::accelerator_ids()) {
    const auto original = hw::make_accelerator(id, 8192);
    const auto text = hw::to_config_text(original);
    const auto loaded = hw::from_config_text(text);
    EXPECT_EQ(loaded.id, original.id);
    EXPECT_EQ(loaded.style, original.style);
    ASSERT_EQ(loaded.sub_accels.size(), original.sub_accels.size()) << id;
    for (std::size_t i = 0; i < loaded.sub_accels.size(); ++i) {
      EXPECT_EQ(loaded.sub_accels[i].dataflow,
                original.sub_accels[i].dataflow);
      EXPECT_EQ(loaded.sub_accels[i].num_pes, original.sub_accels[i].num_pes);
      EXPECT_NEAR(loaded.sub_accels[i].noc_bytes_per_cycle,
                  original.sub_accels[i].noc_bytes_per_cycle, 1e-6);
      // SRAM is serialized in whole KiB.
      EXPECT_NEAR(static_cast<double>(loaded.sub_accels[i].sram_bytes),
                  static_cast<double>(original.sub_accels[i].sram_bytes),
                  1024.0);
    }
  }
}

TEST(HwConfigIo, ParsesHandWrittenConfig) {
  const auto sys = hw::from_config_text(
      "[chip]\n"
      "id = X\n"
      "style = HDA\n"
      "clock_ghz = 0.8\n"
      "[sub_accel]\n"
      "dataflow = WS\n"
      "num_pes = 1024\n"
      "noc_gbps = 64\n"
      "offchip_gbps = 8\n"
      "sram_kib = 2048\n"
      "[sub_accel]\n"
      "dataflow = RS\n"
      "num_pes = 512\n"
      "noc_gbps = 32\n"
      "offchip_gbps = 4\n"
      "sram_kib = 1024\n");
  EXPECT_EQ(sys.id, "X");
  EXPECT_EQ(sys.style, hw::AccelStyle::kHDA);
  ASSERT_EQ(sys.sub_accels.size(), 2u);
  EXPECT_EQ(sys.sub_accels[0].dataflow, costmodel::Dataflow::kWS);
  EXPECT_EQ(sys.sub_accels[1].dataflow, costmodel::Dataflow::kRS);
  EXPECT_EQ(sys.sub_accels[1].num_pes, 512);
  EXPECT_DOUBLE_EQ(sys.sub_accels[0].clock_ghz, 0.8);
  // noc_gbps is converted to bytes/cycle at the chip clock.
  EXPECT_NEAR(sys.sub_accels[0].noc_bytes_per_cycle, 64.0 / 0.8, 1e-9);
}

TEST(HwConfigIo, RejectsInvalidConfigs) {
  EXPECT_THROW(hw::from_config_text("[chip]\nid = X\n"),
               std::invalid_argument);  // no sub_accel
  EXPECT_THROW(hw::from_config_text(
                   "[chip]\nstyle = NOPE\n[sub_accel]\ndataflow = WS\n"
                   "num_pes = 1\nnoc_gbps = 1\noffchip_gbps = 1\n"
                   "sram_kib = 1\n"),
               std::invalid_argument);  // bad style
  EXPECT_THROW(hw::from_config_text(
                   "[chip]\nid = X\n[sub_accel]\ndataflow = QQ\n"
                   "num_pes = 1\nnoc_gbps = 1\noffchip_gbps = 1\n"
                   "sram_kib = 1\n"),
               std::invalid_argument);  // bad dataflow
  EXPECT_THROW(hw::from_config_text(
                   "[chip]\nid = X\n[sub_accel]\ndataflow = WS\n"
                   "num_pes = 0\nnoc_gbps = 1\noffchip_gbps = 1\n"
                   "sram_kib = 1\n"),
               std::invalid_argument);  // zero PEs
}

TEST(HwConfigIo, DvfsTableRoundTripsExactly) {
  auto original = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (auto& sa : original.sub_accels) sa.dvfs.transition_ms = 0.125;
  const auto text = hw::to_config_text(original);
  const auto loaded = hw::from_config_text(text);
  ASSERT_EQ(loaded.sub_accels.size(), original.sub_accels.size());
  for (std::size_t i = 0; i < loaded.sub_accels.size(); ++i) {
    const auto& da = loaded.sub_accels[i].dvfs;
    const auto& db = original.sub_accels[i].dvfs;
    // Exact equality: the ladder feeds the bit-identity contract, so the
    // writer emits max_digits10 and the parser must get every bit back.
    ASSERT_EQ(da.levels.size(), db.levels.size());
    for (std::size_t l = 0; l < da.levels.size(); ++l) {
      EXPECT_EQ(da.levels[l].freq_ghz, db.levels[l].freq_ghz);
      EXPECT_EQ(da.levels[l].voltage_v, db.levels[l].voltage_v);
    }
    EXPECT_EQ(da.nominal_level, db.nominal_level);
    EXPECT_EQ(da.transition_ms, db.transition_ms);
  }
}

TEST(HwConfigIo, DvfsRoundTripsNonShortDecimalClocks) {
  // A clock like 1/1.2 GHz has no short decimal form; the writer must emit
  // it (and the anchored nominal ladder level) at full precision or the
  // library rejects its own output at the exact-equality anchor check.
  auto original = hw::make_accelerator('J', 8192);
  for (auto& sa : original.sub_accels) sa.clock_ghz = 1.0 / 1.2;
  original = hw::with_default_dvfs(std::move(original));
  const auto loaded = hw::from_config_text(hw::to_config_text(original));
  ASSERT_EQ(loaded.sub_accels.size(), original.sub_accels.size());
  for (std::size_t i = 0; i < loaded.sub_accels.size(); ++i) {
    EXPECT_EQ(loaded.sub_accels[i].clock_ghz, original.sub_accels[i].clock_ghz);
    // noc/offchip round-trip through a gbps <-> bytes/cycle conversion, so
    // only near-equality is promised; the exact-equality contract is on the
    // clock/ladder pair the anchor check compares.
    EXPECT_NEAR(loaded.sub_accels[i].noc_bytes_per_cycle,
                original.sub_accels[i].noc_bytes_per_cycle, 1e-9);
    EXPECT_EQ(loaded.sub_accels[i].dvfs.nominal_level,
              original.sub_accels[i].dvfs.nominal_level);
    EXPECT_TRUE(loaded.sub_accels[i].dvfs.anchored_at(
        loaded.sub_accels[i].clock_ghz));
  }
}

TEST(HwConfigIo, DvfsParsesHandWrittenLadder) {
  const auto sys = hw::from_config_text(
      "[chip]\n"
      "id = X\n"
      "clock_ghz = 1\n"
      "[sub_accel]\n"
      "dataflow = WS\n"
      "num_pes = 1024\n"
      "noc_gbps = 64\n"
      "offchip_gbps = 8\n"
      "sram_kib = 2048\n"
      "dvfs_levels = 0.5@0.62, 1@0.8, 1.2@0.9\n"
      "dvfs_transition_ms = 0.25\n"
      "dvfs_idle_mw = 35.5\n");
  ASSERT_EQ(sys.sub_accels.size(), 1u);
  const auto& dvfs = sys.sub_accels[0].dvfs;
  ASSERT_EQ(dvfs.levels.size(), 3u);
  // No dvfs_nominal key: the level at the chip clock is inferred.
  EXPECT_EQ(dvfs.nominal_level, 1u);
  EXPECT_EQ(dvfs.levels[0].freq_ghz, 0.5);
  EXPECT_EQ(dvfs.levels[2].voltage_v, 0.9);
  EXPECT_EQ(dvfs.transition_ms, 0.25);
  EXPECT_EQ(dvfs.idle_mw, 35.5);
  EXPECT_TRUE(dvfs.valid());
  EXPECT_TRUE(dvfs.anchored_at(1.0));
  // The idle term survives the writer round-trip.
  const auto round = hw::from_config_text(hw::to_config_text(sys));
  EXPECT_EQ(round.sub_accels[0].dvfs.idle_mw, 35.5);
  EXPECT_EQ(round.sub_accels[0].dvfs.transition_ms, 0.25);
}

TEST(HwConfigIo, RejectsMalformedValuesWithLineNumber) {
  // Each case rewrites one line of a valid config; the rejection must name
  // the offending source line and say what is wrong.
  const std::vector<std::string> valid = {
      "[chip]",                          // line 1
      "id = X",                          // line 2
      "clock_ghz = 0.5",                 // line 3
      "[sub_accel]",                     // line 4
      "dataflow = WS",                   // line 5
      "num_pes = 1024",                  // line 6
      "noc_gbps = 64",                   // line 7
      "offchip_gbps = 8",                // line 8
      "sram_kib = 2048",                 // line 9
      "dvfs_levels = 0.25@0.62, 0.5@0.8",  // line 10
  };
  struct Case {
    int edit_line;
    std::string text;
    int error_line;
    std::string expect;
  };
  // A strictly-ascending ladder one point longer than the cap allows.
  std::string too_long = "dvfs_levels = ";
  for (std::size_t i = 1; i <= hw::kMaxDvfsLevels + 1; ++i) {
    too_long += (i > 1 ? ", " : "") + std::to_string(i) + "@0.8";
  }
  const Case cases[] = {
      {10, "dvfs_levels = 0.5@0.8, 0.25@0.62", 10, "ascending"},
      {10, too_long, 10, "at most " + std::to_string(hw::kMaxDvfsLevels)},
      {10, "dvfs_levels = 0.25@nan, 0.5@0.8", 10, "finite"},
      {10, "dvfs_levels = 0.25@0.62, 0.5@0.8, inf@0.9", 10, "finite"},
      {10, "dvfs_transition_ms = inf", 10, "dvfs_transition_ms"},
      {10, "dvfs_idle_mw = nan", 10, "dvfs_idle_mw"},
      {3, "clock_ghz = 0", 3, "clock_ghz"},
      {3, "clock_ghz = nan", 3, "clock_ghz"},
      {6, "num_pes = 0", 6, "num_pes"},
      {7, "noc_gbps = inf", 7, "noc_gbps"},
      {8, "offchip_gbps = inf", 8, "offchip_gbps"},
      {8, "offchip_gbps = -8", 8, "offchip_gbps"},
      {9, "sram_kib = 0", 9, "sram_kib"},
      // sram_kib * 1024 would overflow a signed 64-bit byte count.
      {9, "sram_kib = 9000000000000000000", 9, "sram_kib"},
      // Finite in GB/s but infinite in bytes per cycle at 0.5 GHz.
      {7, "noc_gbps = 1e308", 4, "resources"},
      {6, "num_pes = abc", 6, "num_pes"},
      {5, "dataflow = QQ", 5, "dataflow"},
      {6, "num_pe = 1024", 6, "unknown [sub_accel] key 'num_pe'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    std::string config;
    for (std::size_t i = 0; i < valid.size(); ++i) {
      const bool edited = static_cast<int>(i) + 1 == c.edit_line;
      config += (edited ? c.text : valid[i]) + "\n";
    }
    try {
      hw::from_config_text(config);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("line " + std::to_string(c.error_line)),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(c.expect), std::string::npos) << message;
    }
  }
}

TEST(HwConfigIo, DvfsLadderAtTheCapParses) {
  // kMaxDvfsLevels ascending points ending on the chip clock: the longest
  // ladder a config may list.
  std::string ladder = "dvfs_levels = ";
  for (std::size_t i = 1; i <= hw::kMaxDvfsLevels; ++i) {
    ladder += (i > 1 ? ", " : "") + std::to_string(i) + "@0.8";
  }
  const auto sys = hw::from_config_text(
      "[chip]\nid = X\nclock_ghz = " + std::to_string(hw::kMaxDvfsLevels) +
      "\n[sub_accel]\ndataflow = WS\nnum_pes = 1024\nnoc_gbps = 64\n"
      "offchip_gbps = 8\nsram_kib = 2048\n" +
      ladder + "\n");
  const auto& dvfs = sys.sub_accels.front().dvfs;
  EXPECT_EQ(dvfs.num_levels(), hw::kMaxDvfsLevels);
  EXPECT_EQ(dvfs.nominal_level, hw::kMaxDvfsLevels - 1);
}

TEST(HwConfigIo, DvfsRejectsOtherMalformedLadders) {
  const std::string prefix =
      "[chip]\nid = X\nclock_ghz = 1\n[sub_accel]\ndataflow = WS\n"
      "num_pes = 1024\nnoc_gbps = 64\noffchip_gbps = 8\nsram_kib = 2048\n";
  // Non-numeric entry.
  EXPECT_THROW(hw::from_config_text(prefix + "dvfs_levels = abc@0.8\n"),
               std::invalid_argument);
  // Missing voltage separator.
  EXPECT_THROW(hw::from_config_text(prefix + "dvfs_levels = 1.0\n"),
               std::invalid_argument);
  // Non-positive voltage.
  EXPECT_THROW(hw::from_config_text(prefix + "dvfs_levels = 1@0\n"),
               std::invalid_argument);
  // Nominal index out of range.
  EXPECT_THROW(hw::from_config_text(prefix +
                                    "dvfs_levels = 0.5@0.6, 1@0.8\n"
                                    "dvfs_nominal = 5\n"),
               std::invalid_argument);
  // No level at the chip clock and no explicit nominal.
  EXPECT_THROW(hw::from_config_text(prefix + "dvfs_levels = 0.5@0.6\n"),
               std::invalid_argument);
  // Explicit nominal not anchored at the chip clock.
  EXPECT_THROW(hw::from_config_text(prefix +
                                    "dvfs_levels = 0.5@0.6, 1@0.8\n"
                                    "dvfs_nominal = 0\n"),
               std::invalid_argument);
  // Negative transition penalty.
  EXPECT_THROW(hw::from_config_text(prefix + "dvfs_transition_ms = -1\n"),
               std::invalid_argument);
  // Negative idle power.
  EXPECT_THROW(hw::from_config_text(prefix + "dvfs_idle_mw = -5\n"),
               std::invalid_argument);
}

TEST(HwConfigIo, DvfsConfigDrivesBitIdenticalRuns) {
  // A system round-tripped through the text format produces byte-identical
  // cost tables (spot-checked through a governed run).
  const auto original = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto loaded = hw::from_config_text(hw::to_config_text(original));
  core::HarnessOptions opt;
  opt.governor = "deadline-aware";
  const core::Harness a(original, opt);
  const core::Harness b(loaded, opt);
  const auto ra = a.run_once(workload::scenario_by_name("AR Gaming"), 42);
  const auto rb = b.run_once(workload::scenario_by_name("AR Gaming"), 42);
  EXPECT_EQ(ra.total_energy_mj, rb.total_energy_mj);
  const auto ta = ra.timeline();
  const auto tb = rb.timeline();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].start_ms, tb[i].start_ms);
    EXPECT_EQ(ta[i].end_ms, tb[i].end_ms);
  }
}

TEST(HwConfigIo, StyleParsing) {
  EXPECT_EQ(hw::parse_accel_style("FDA"), hw::AccelStyle::kFDA);
  EXPECT_EQ(hw::parse_accel_style("SFDA"), hw::AccelStyle::kSFDA);
  EXPECT_EQ(hw::parse_accel_style("HDA"), hw::AccelStyle::kHDA);
  EXPECT_THROW(hw::parse_accel_style("fda"), std::invalid_argument);
}

TEST(ScenarioIo, RoundTripsTable2Suite) {
  for (const auto& scenario : workload::benchmark_suite()) {
    const auto text = workload::to_config_text(scenario);
    const auto loaded = workload::from_config_text(text);
    EXPECT_EQ(loaded.name, scenario.name);
    ASSERT_EQ(loaded.models.size(), scenario.models.size()) << scenario.name;
    for (std::size_t i = 0; i < loaded.models.size(); ++i) {
      EXPECT_EQ(loaded.models[i].task, scenario.models[i].task);
      EXPECT_DOUBLE_EQ(loaded.models[i].target_fps,
                       scenario.models[i].target_fps);
      EXPECT_EQ(loaded.models[i].depends_on, scenario.models[i].depends_on);
      EXPECT_EQ(loaded.models[i].dependency, scenario.models[i].dependency);
      EXPECT_DOUBLE_EQ(loaded.models[i].trigger_probability,
                       scenario.models[i].trigger_probability);
    }
  }
}

TEST(ScenarioIo, RoundTripsNonShortDoublesExactly) {
  // Rates and probabilities with no short decimal form reload bit for bit
  // (a 12-digit writer reloaded 0.1 + 0.2 as 0.29999999999999999).
  workload::UsageScenario scenario;
  scenario.name = "Exact";
  workload::ScenarioModel ht;
  ht.task = models::TaskId::kHT;
  ht.target_fps = 100.0 / 3.0;
  workload::ScenarioModel kd;
  kd.task = models::TaskId::kKD;
  kd.target_fps = 3.0;
  workload::ScenarioModel sr;
  sr.task = models::TaskId::kSR;
  sr.target_fps = 3.0;
  sr.depends_on = models::TaskId::kKD;
  sr.dependency = workload::DependencyType::kControl;
  sr.trigger_probability = 0.1 + 0.2;
  scenario.models = {ht, kd, sr};
  const auto loaded =
      workload::from_config_text(workload::to_config_text(scenario));
  ASSERT_EQ(loaded.models.size(), 3u);
  EXPECT_EQ(loaded.models[0].target_fps, scenario.models[0].target_fps);
  EXPECT_EQ(loaded.models[2].trigger_probability,
            scenario.models[2].trigger_probability);
}

TEST(ScenarioIo, ParsesCustomScenario) {
  const auto scenario = workload::from_config_text(
      "[scenario]\n"
      "name = Custom\n"
      "description = test\n"
      "[model]\n"
      "task = HT\n"
      "fps = 30\n"
      "[model]\n"
      "task = SR\n"
      "fps = 3\n"
      "depends_on = HT\n"
      "dependency = control\n"
      "trigger_probability = 0.4\n");
  EXPECT_EQ(scenario.name, "Custom");
  ASSERT_EQ(scenario.models.size(), 2u);
  EXPECT_EQ(scenario.models[1].dependency,
            workload::DependencyType::kControl);
  EXPECT_DOUBLE_EQ(scenario.models[1].trigger_probability, 0.4);
}

TEST(ScenarioIo, RejectsInvalidScenarios) {
  // No models.
  EXPECT_THROW(workload::from_config_text("[scenario]\nname = x\n"),
               std::invalid_argument);
  // Duplicate task.
  EXPECT_THROW(workload::from_config_text(
                   "[scenario]\nname = x\n[model]\ntask = HT\nfps = 30\n"
                   "[model]\ntask = HT\nfps = 60\n"),
               std::invalid_argument);
  // FPS above the sensor rate (mic streams at 3 FPS).
  EXPECT_THROW(workload::from_config_text(
                   "[scenario]\nname = x\n[model]\ntask = KD\nfps = 30\n"),
               std::invalid_argument);
  // Dependency on inactive model.
  EXPECT_THROW(workload::from_config_text(
                   "[scenario]\nname = x\n[model]\ntask = GE\nfps = 60\n"
                   "depends_on = ES\ndependency = data\n"),
               std::invalid_argument);
  // Probability out of range.
  EXPECT_THROW(workload::from_config_text(
                   "[scenario]\nname = x\n[model]\ntask = ES\nfps = 60\n"
                   "[model]\ntask = GE\nfps = 60\ndepends_on = ES\n"
                   "dependency = data\ntrigger_probability = 1.5\n"),
               std::invalid_argument);
  // Data-dependent model whose rate differs from its upstream's: it would
  // be requested at the upstream's completion rate but score its QoE
  // against its own target_fps, so the parser rejects the mismatch.
  EXPECT_THROW(workload::from_config_text(
                   "[scenario]\nname = x\n[model]\ntask = ES\nfps = 60\n"
                   "[model]\ntask = GE\nfps = 30\ndepends_on = ES\n"
                   "dependency = data\n"),
               std::invalid_argument);
  // NaN fails both range tests of fps and trigger_probability, so each is
  // rejected on its own, at its source line (a NaN trigger probability
  // used to run the dependent model 0/0 frames without a word).
  const struct {
    const char* text;
    const char* key;
    const char* line;
  } non_finite[] = {
      {"[scenario]\nname = x\n[model]\ntask = HT\nfps = nan\n", "fps",
       "line 5"},
      {"[scenario]\nname = x\n[model]\ntask = HT\nfps = 30\n"
       "[model]\ntask = KD\nfps = 3\ndepends_on = HT\n"
       "dependency = control\ntrigger_probability = nan\n",
       "trigger_probability", "line 11"},
      {"[scenario]\nname = x\n[model]\ntask = HT\nfps = abc\n", "fps",
       "line 5"},
      {"[scenario]\nname = x\n[model]\ntask = QQ\nfps = 30\n", "task",
       "line 4"},
      {"[scenario]\nname = x\n[model]\ntask = HT\nfsp = 30\n",
       "unknown [model] key 'fsp'", "line 5"},
  };
  for (const auto& row : non_finite) {
    try {
      workload::from_config_text(row.text);
      ADD_FAILURE() << "expected std::invalid_argument for " << row.key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(row.key), std::string::npos) << what;
      EXPECT_NE(what.find(row.line), std::string::npos) << what;
    }
  }
  // The same rates parse fine, and a control dependency may diverge.
  EXPECT_NO_THROW(workload::from_config_text(
      "[scenario]\nname = x\n[model]\ntask = ES\nfps = 60\n"
      "[model]\ntask = GE\nfps = 60\ndepends_on = ES\n"
      "dependency = data\n"));
  EXPECT_NO_THROW(workload::from_config_text(
      "[scenario]\nname = x\n[model]\ntask = KD\nfps = 3\n"
      "[model]\ntask = SR\nfps = 1\ndepends_on = KD\n"
      "dependency = control\ntrigger_probability = 0.5\n"));
}

TEST(ScenarioIo, RoundTripsExtensionScenarios) {
  for (const auto& scenario : workload::extension_scenarios()) {
    const auto text = workload::to_config_text(scenario);
    const auto loaded = workload::from_config_text(text);
    EXPECT_EQ(loaded.name, scenario.name);
    EXPECT_EQ(loaded.models.size(), scenario.models.size()) << scenario.name;
    // And they resolve through the by-name registry.
    EXPECT_EQ(workload::scenario_by_name(scenario.name).name, scenario.name);
  }
}

TEST(ScenarioIo, LoadsWrittenFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    "xrbench_scenario_test.ini";
  std::ofstream(path) << workload::to_config_text(
      workload::scenario_by_name("VR Gaming"));
  const auto loaded = workload::load_scenario(path);
  EXPECT_EQ(loaded.name, "VR Gaming");
  std::filesystem::remove(path);
}

TEST(HwConfigIo, LoadsWrittenFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "xrbench_hw_test.ini";
  std::ofstream(path) << hw::to_config_text(hw::make_accelerator('K', 4096));
  const auto loaded = hw::load_accelerator(path);
  EXPECT_EQ(loaded.id, "K");
  EXPECT_EQ(loaded.sub_accels.size(), 2u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace xrbench
