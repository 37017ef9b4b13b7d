#include "workload/scenario_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/harness.h"
#include "core/sweep.h"
#include "outcome_checks.h"
#include "workload/scenario_io.h"

namespace xrbench::workload {
namespace {

using models::TaskId;

// ---- Exact-equality helpers (the determinism contract is bitwise) ---------

void expect_records_identical(const runtime::RecordStore& a,
                              const runtime::RecordStore& b,
                              const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.task()[i], b.task()[i]) << context << " record " << i;
    EXPECT_EQ(a.frame()[i], b.frame()[i]) << context << " record " << i;
    EXPECT_EQ(a.treq_ms()[i], b.treq_ms()[i]) << context << " record " << i;
    EXPECT_EQ(a.tdl_ms()[i], b.tdl_ms()[i]) << context << " record " << i;
    EXPECT_EQ(a.dropped()[i], b.dropped()[i]) << context << " record " << i;
    EXPECT_EQ(a.sub_accel()[i], b.sub_accel()[i])
        << context << " record " << i;
    EXPECT_EQ(a.dvfs_level()[i], b.dvfs_level()[i])
        << context << " record " << i;
    EXPECT_EQ(a.dispatch_ms()[i], b.dispatch_ms()[i])
        << context << " record " << i;
    EXPECT_EQ(a.complete_ms()[i], b.complete_ms()[i])
        << context << " record " << i;
    EXPECT_EQ(a.energy_mj()[i], b.energy_mj()[i])
        << context << " record " << i;
  }
}

void expect_runs_identical(const runtime::ScenarioRunResult& a,
                           const runtime::ScenarioRunResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.duration_ms, b.duration_ms) << context;
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << context;
  ASSERT_EQ(a.telemetry.num_sub_accels(), b.telemetry.num_sub_accels());
  for (std::size_t i = 0; i < a.telemetry.num_sub_accels(); ++i) {
    EXPECT_EQ(a.telemetry.sub_accel(i).busy_ms,
              b.telemetry.sub_accel(i).busy_ms)
        << context;
  }
  const auto ta = a.timeline();
  const auto tb = b.timeline();
  ASSERT_EQ(ta.size(), tb.size()) << context;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].sub_accel, tb[i].sub_accel) << context;
    EXPECT_EQ(ta[i].task, tb[i].task) << context;
    EXPECT_EQ(ta[i].frame, tb[i].frame) << context;
    EXPECT_EQ(ta[i].start_ms, tb[i].start_ms) << context;
    EXPECT_EQ(ta[i].end_ms, tb[i].end_ms) << context;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size()) << context;
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const auto& ma = a.per_model[m];
    const auto& mb = b.per_model[m];
    EXPECT_EQ(ma.task, mb.task) << context;
    EXPECT_EQ(ma.frames_expected, mb.frames_expected) << context;
    EXPECT_EQ(ma.frames_executed, mb.frames_executed) << context;
    EXPECT_EQ(ma.frames_dropped, mb.frames_dropped) << context;
    EXPECT_EQ(ma.deadline_misses, mb.deadline_misses) << context;
    expect_records_identical(ma.records, mb.records,
                             context + " model " + std::to_string(m));
  }
}

void expect_scores_identical(const core::ScenarioScore& a,
                             const core::ScenarioScore& b,
                             const std::string& context) {
  EXPECT_EQ(a.overall, b.overall) << context;
  EXPECT_EQ(a.realtime, b.realtime) << context;
  EXPECT_EQ(a.energy, b.energy) << context;
  EXPECT_EQ(a.qoe, b.qoe) << context;
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << context;
  EXPECT_EQ(a.frame_drop_rate, b.frame_drop_rate) << context;
  ASSERT_EQ(a.models.size(), b.models.size()) << context;
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    EXPECT_EQ(a.models[m].task, b.models[m].task) << context;
    EXPECT_EQ(a.models[m].combined, b.models[m].combined) << context;
    EXPECT_EQ(a.models[m].qoe, b.models[m].qoe) << context;
  }
}

// ---- Structure & registry -------------------------------------------------

TEST(ScenarioProgram, ValidationRejectsMalformedPrograms) {
  ScenarioProgram empty;
  empty.name = "empty";
  EXPECT_THROW(validate_program(empty), std::invalid_argument);

  ScenarioProgram bad_duration =
      single_phase_program(scenario_by_name("AR Gaming"), 500.0);
  bad_duration.phases.front().duration_ms = 0.0;
  EXPECT_THROW(validate_program(bad_duration), std::invalid_argument);
  for (double d : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    bad_duration.phases.front().duration_ms = d;
    EXPECT_THROW(validate_program(bad_duration), std::invalid_argument) << d;
  }

  ScenarioProgram ok = single_phase_program(scenario_by_name("AR Gaming"),
                                            500.0);
  EXPECT_NO_THROW(validate_program(ok));
  EXPECT_EQ(ok.total_duration_ms(), 500.0);
}

TEST(ScenarioProgram, ExtensionProgramsAreRegisteredAndValid) {
  const auto& programs = extension_programs();
  ASSERT_GE(programs.size(), 3u);
  for (const auto& p : programs) {
    EXPECT_GE(p.num_phases(), 3u) << p.name;
    EXPECT_NO_THROW(validate_program(p)) << p.name;
    EXPECT_EQ(&program_by_name(p.name), &p);
  }
  // Dynamic detection spans phases: the hand-off program's keyword-gated
  // cascades make it stochastic, so benches average trials.
  EXPECT_TRUE(is_dynamic_program(program_by_name("Scenario Hand-Off")));
  try {
    program_by_name("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Scenario Hand-Off"),
              std::string::npos);
  }
}

// ---- The compatibility anchor: single phase == legacy run -----------------

TEST(ScenarioProgram, SinglePhaseProgramIsBitIdenticalToLegacyRun) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  core::HarnessOptions opt;
  opt.run.duration_ms = 600.0;
  opt.governor = "deadline-aware";
  const core::Harness harness(system, opt);

  for (const char* name :
       {"AR Gaming", "Social Interaction A", "Outdoor Activity A"}) {
    const auto& scenario = scenario_by_name(name);
    const auto program = single_phase_program(scenario, opt.run.duration_ms);
    for (std::uint64_t seed : {42ull, 1234ull}) {
      const auto legacy = harness.run_once(scenario, seed);
      const auto programmed = harness.run_program_once(program, seed);
      EXPECT_EQ(programmed.scenario_name, legacy.scenario_name);
      ASSERT_EQ(programmed.phase_start_ms.size(), 1u);
      EXPECT_EQ(programmed.phase_start_ms.front(), 0.0);
      expect_runs_identical(programmed, legacy, std::string(name));
      expect_scores_identical(
          core::score_scenario(programmed, opt.score),
          core::score_scenario(legacy, opt.score), std::string(name));
    }
  }
}

TEST(ScenarioProgram, HarnessProgramTrialsMatchScenarioTrials) {
  // The trial-averaged program outcome of a single-phase program equals the
  // scenario outcome (same dynamic-trial fan-out, same seeds).
  core::HarnessOptions opt;
  opt.run.duration_ms = 400.0;
  opt.dynamic_trials = 4;
  const core::Harness harness(hw::make_accelerator('J', 4096), opt);
  const auto& scenario = scenario_by_name("Outdoor Activity A");
  const auto sc = harness.run_scenario(scenario);
  const auto pr = harness.run_program(
      single_phase_program(scenario, opt.run.duration_ms));
  EXPECT_EQ(sc.trials, pr.trials);
  expect_scores_identical(sc.score, pr.score, "trial average");
}

// ---- Multi-phase semantics ------------------------------------------------

TEST(ScenarioProgram, PhasesStitchOntoOneContinuousTimeline) {
  core::HarnessOptions opt;
  const core::Harness harness(hw::make_accelerator('J', 8192), opt);
  const auto& program = program_by_name("Multi-User Co-Presence");
  const auto run = harness.run_program_once(program, 42);

  EXPECT_EQ(run.duration_ms, program.total_duration_ms());
  ASSERT_EQ(run.phase_start_ms.size(), program.num_phases());
  // The merged stores grew by doubling and are trimmed to their size.
  for (const auto& ms : run.per_model) {
    EXPECT_EQ(ms.records.capacity(), ms.records.size());
  }
  double expected_start = 0.0;
  for (std::size_t p = 0; p < program.num_phases(); ++p) {
    EXPECT_EQ(run.phase_start_ms[p], expected_start);
    expected_start += program.phases[p].duration_ms;
  }
  // The timeline is globally sorted and every phase contributed work beyond
  // its start offset.
  const auto timeline = run.timeline();
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].start_ms, timeline[i - 1].start_ms);
  }
  EXPECT_GT(timeline.back().start_ms, run.phase_start_ms.back());
  // Cumulative QoE accounting: HT runs in phases 1 (45 FPS) and 2 (30 FPS)
  // of the co-presence program, so its expected frames span both phases.
  const auto* ht = run.find(TaskId::kHT);
  ASSERT_NE(ht, nullptr);
  EXPECT_EQ(ht->frames_expected,
            static_cast<std::int64_t>(45 * 0.4 + 30 * 0.4));
  // Records from the second HT phase sit past the phase boundary.
  bool past_boundary = false;
  for (std::size_t i = 0; i < ht->records.size(); ++i) {
    if (ht->records.treq_ms()[i] >= run.phase_start_ms.back()) {
      past_boundary = true;
    }
  }
  EXPECT_TRUE(past_boundary);
}

TEST(ScenarioProgram, PhaseBoundaryRetirementIsDeterministic) {
  // Two runs of the same hand-off program at the same seed are bitwise
  // equal — in-flight frames retire the same way at every boundary.
  core::HarnessOptions opt;
  const core::Harness harness(hw::make_accelerator('G', 4096), opt);
  const auto& program = program_by_name("Scenario Hand-Off");
  const auto a = harness.run_program_once(program, 7);
  const auto b = harness.run_program_once(program, 7);
  expect_runs_identical(a, b, "repeat run");
}

// ---- Sweep engine: serial vs parallel byte identity -----------------------

TEST(ScenarioProgram, SweepProgramPointsByteIdenticalAcross1248Workers) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 5;
  std::vector<core::ProgramSweepPoint> points;
  for (const auto& program : extension_programs()) {
    points.push_back({program.name, hw::make_accelerator('J', 4096), opt,
                      program});
  }
  core::SweepEngine serial(0);
  const auto baseline = serial.run_program_points(points);
  ASSERT_EQ(baseline.size(), points.size());
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    core::SweepEngine engine(workers);
    const auto got = engine.run_program_points(points);
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      test::expect_identical(got[p], baseline[p],
                             points[p].label + " @ " +
                                 std::to_string(workers) + " workers");
    }
  }
}

TEST(ScenarioProgram, SweepMatchesHarnessExactly) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 3;
  const auto& program = program_by_name("Bursty Notification Over Base");
  const auto system = hw::make_accelerator('J', 4096);
  core::SweepEngine engine(4);
  const auto outcomes =
      engine.run_program_points({{program.name, system, opt, program}});
  ASSERT_EQ(outcomes.size(), 1u);
  const core::Harness harness(system, opt);
  const auto expected = harness.run_program(program);
  test::expect_identical(outcomes.front(), expected, "sweep");
}

// ---- Program-named policies -----------------------------------------------

TEST(ScenarioProgram, ProgramPolicyNamesOverrideHarnessOptions) {
  core::HarnessOptions opt;
  opt.scheduler = "latency-greedy";
  const core::Harness harness(hw::make_accelerator('J', 4096), opt);
  auto program = single_phase_program(scenario_by_name("AR Gaming"), 500.0);
  const auto greedy = harness.run_program_once(program, 42);
  program.scheduler = "round-robin";
  const auto rr = harness.run_program_once(program, 42);
  // The program's own scheduler took effect (policies differ on an
  // overloaded design).
  const auto sg = core::score_scenario(greedy, opt.score);
  const auto sr = core::score_scenario(rr, opt.score);
  EXPECT_NE(sg.overall, sr.overall);
}

// ---- Text-config round-trip -----------------------------------------------

TEST(ScenarioProgramIo, RoundTripsThroughConfigText) {
  for (const auto& program : extension_programs()) {
    const auto text = to_config_text(program);
    const auto parsed = program_from_config_text(text);
    EXPECT_EQ(parsed.name, program.name);
    EXPECT_EQ(parsed.description, program.description);
    EXPECT_EQ(parsed.scheduler, program.scheduler);
    EXPECT_EQ(parsed.governor, program.governor);
    ASSERT_EQ(parsed.phases.size(), program.phases.size()) << program.name;
    for (std::size_t p = 0; p < parsed.phases.size(); ++p) {
      const auto& pa = parsed.phases[p];
      const auto& pb = program.phases[p];
      EXPECT_EQ(pa.duration_ms, pb.duration_ms) << program.name;
      EXPECT_EQ(pa.seed_offset, pb.seed_offset) << program.name;
      EXPECT_EQ(pa.scenario.name, pb.scenario.name) << program.name;
      ASSERT_EQ(pa.scenario.models.size(), pb.scenario.models.size());
      for (std::size_t m = 0; m < pa.scenario.models.size(); ++m) {
        EXPECT_EQ(pa.scenario.models[m].task, pb.scenario.models[m].task);
        EXPECT_EQ(pa.scenario.models[m].target_fps,
                  pb.scenario.models[m].target_fps);
        EXPECT_EQ(pa.scenario.models[m].trigger_probability,
                  pb.scenario.models[m].trigger_probability);
      }
    }
    // And the parsed program runs bitwise-identically to the original.
    core::HarnessOptions opt;
    const core::Harness harness(hw::make_accelerator('J', 4096), opt);
    expect_runs_identical(harness.run_program_once(parsed, 42),
                          harness.run_program_once(program, 42),
                          program.name + " parsed");
  }
  // Phase seed offsets reload over the whole 64-bit range.
  auto program = extension_programs().front();
  for (const std::uint64_t offset :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    program.phases.back().seed_offset = offset;
    const auto parsed = program_from_config_text(to_config_text(program));
    EXPECT_EQ(parsed.phases.back().seed_offset, offset);
  }
}

TEST(ScenarioProgramIo, RoundTripsNonShortDoublesExactly) {
  // An inline scenario's rates and probabilities reload bit for bit, like
  // the phase durations do.
  UsageScenario scenario;
  scenario.name = "Exact";
  ScenarioModel kd;
  kd.task = TaskId::kKD;
  kd.target_fps = 3.0;
  ScenarioModel sr;
  sr.task = TaskId::kSR;
  sr.target_fps = 3.0;
  sr.depends_on = TaskId::kKD;
  sr.dependency = DependencyType::kControl;
  sr.trigger_probability = 0.1 + 0.2;
  ScenarioModel ht;
  ht.task = TaskId::kHT;
  ht.target_fps = 100.0 / 3.0;
  scenario.models = {kd, sr, ht};
  const ScenarioProgram program =
      single_phase_program(scenario, 1000.0 / 3.0);
  const auto parsed = program_from_config_text(to_config_text(program));
  ASSERT_EQ(parsed.phases.size(), 1u);
  const auto& models = parsed.phases[0].scenario.models;
  ASSERT_EQ(models.size(), 3u);
  EXPECT_EQ(models[1].trigger_probability, sr.trigger_probability);
  EXPECT_EQ(models[2].target_fps, ht.target_fps);
  EXPECT_EQ(parsed.phases[0].duration_ms, program.phases[0].duration_ms);
}

TEST(ScenarioProgramIo, ParsesPoliciesAndRegistryReferences) {
  const std::string text =
      "[program]\n"
      "name = Mixed\n"
      "scheduler = edf\n"
      "governor = race-to-idle\n"
      "[phase]\n"
      "scenario = AR Gaming\n"
      "duration_ms = 250\n"
      "[phase]\n"
      "scenario = VR Gaming\n"
      "duration_ms = 250\n"
      "seed_offset = 3\n";
  const auto program = program_from_config_text(text);
  EXPECT_EQ(program.scheduler, "edf");
  EXPECT_EQ(program.governor, "race-to-idle");
  ASSERT_EQ(program.phases.size(), 2u);
  EXPECT_EQ(program.phases[0].scenario.name, "AR Gaming");
  EXPECT_EQ(program.phases[1].seed_offset, 3u);
}

TEST(ScenarioProgramIo, RejectsMalformedPrograms) {
  // No phases.
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"),
               std::invalid_argument);
  // Unknown scenario reference.
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"
                                        "[phase]\nscenario = nope\n"
                                        "duration_ms = 100\n"),
               std::invalid_argument);
  // Non-positive or non-finite duration names the line.
  for (const char* duration : {"-5", "nan", "inf", "-inf"}) {
    try {
      program_from_config_text(
          std::string("[program]\nname = x\n"
                      "[phase]\nscenario = AR Gaming\nduration_ms = ") +
          duration + "\n");
      FAIL() << "expected std::invalid_argument for " << duration;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
          << e.what();
    }
  }
  // A non-finite fps or trigger probability in an inline scenario names
  // its line.
  const struct {
    const char* model;
    const char* line;
  } non_finite[] = {
      {"[model]\ntask = HT\nfps = nan\n", "line 7"},
      {"[model]\ntask = HT\nfps = 30\n[model]\ntask = KD\nfps = 3\n"
       "depends_on = HT\ndependency = control\ntrigger_probability = nan\n",
       "line 13"},
  };
  for (const auto& row : non_finite) {
    try {
      program_from_config_text(
          std::string("[program]\nname = x\n[scenario]\nname = Inline\n") +
          row.model + "[phase]\nscenario = Inline\nduration_ms = 100\n");
      ADD_FAILURE() << "expected std::invalid_argument at " << row.line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.line), std::string::npos)
          << e.what();
    }
  }
  // A bad [phase] value names its line.
  const struct {
    const char* phase;
    const char* line;
  } bad_phase[] = {
      {"scenario = Nope\nduration_ms = 100\n", "line 4"},
      {"scenario = AR Gaming\nduration_ms = 100\nseed_offset = x\n",
       "line 6"},
      {"scenario = AR Gaming\nduration_ms = 100\n"
       "seed_offset = 18446744073709551616\n",
       "line 6"},
      // A misspelt key, not the missing duration_ms at the header's line 3.
      {"scenario = AR Gaming\nduraton_ms = 5\n", "line 5"},
  };
  for (const auto& row : bad_phase) {
    try {
      program_from_config_text(std::string("[program]\nname = x\n[phase]\n") +
                               row.phase);
      ADD_FAILURE() << "expected std::invalid_argument at " << row.line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.line), std::string::npos)
          << e.what();
    }
  }
  // An unknown policy name names its line, before any run starts.
  for (const char* key : {"scheduler", "governor", "admission"}) {
    try {
      program_from_config_text(std::string("[program]\nname = x\n") + key +
                               " = Nope\n[phase]\nscenario = AR Gaming\n"
                               "duration_ms = 100\n");
      ADD_FAILURE() << "expected std::invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("unknown ") + key), std::string::npos)
          << what;
    }
  }
  // A [model] before any [scenario].
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"
                                        "[model]\ntask = HT\nfps = 30\n"
                                        "[phase]\nscenario = AR Gaming\n"
                                        "duration_ms = 100\n"),
               std::invalid_argument);
}

// ---- DVFS transition-latency penalty --------------------------------------

TEST(DvfsTransitionPenalty, ZeroPenaltyIsBitIdenticalToBaseline) {
  auto base = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  auto zero = base;
  for (auto& sa : zero.sub_accels) sa.dvfs.transition_ms = 0.0;
  core::HarnessOptions opt;
  opt.governor = "deadline-aware";
  const core::Harness a(base, opt);
  const core::Harness b(zero, opt);
  const auto& scenario = scenario_by_name("AR Gaming");
  expect_runs_identical(a.run_once(scenario, 42), b.run_once(scenario, 42),
                        "zero penalty");
}

TEST(DvfsTransitionPenalty, LevelSwitchesChargeLatency) {
  auto penalized = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  for (auto& sa : penalized.sub_accels) sa.dvfs.transition_ms = 2.0;
  ASSERT_TRUE(penalized.sub_accels.front().dvfs.valid());
  const auto baseline_sys =
      hw::with_default_dvfs(hw::make_accelerator('J', 4096));

  core::HarnessOptions opt;
  opt.governor = "deadline-aware";
  const core::Harness base(baseline_sys, opt);
  const core::Harness pen(penalized, opt);
  const auto& scenario = scenario_by_name("AR Gaming");
  const auto a = base.run_once(scenario, 42);
  const auto b = pen.run_once(scenario, 42);

  // The deadline-aware governor switches levels on this overloaded design;
  // confirm the baseline actually exercises switches (else the test is
  // vacuous), then require the penalized run to spend strictly more busy
  // time — every switch now stalls the sub-accelerator.
  std::vector<std::vector<std::pair<double, int>>> dispatches(
      baseline_sys.sub_accels.size());
  for (const auto& ms : a.per_model) {
    const auto& recs = ms.records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs.dropped()[i] != 0) continue;
      dispatches[static_cast<std::size_t>(recs.sub_accel()[i])].push_back(
          {recs.dispatch_ms()[i], recs.dvfs_level()[i]});
    }
  }
  int switches = 0;
  for (auto& d : dispatches) {
    std::sort(d.begin(), d.end());
    for (std::size_t i = 1; i < d.size(); ++i) {
      if (d[i].second != d[i - 1].second) ++switches;
    }
  }
  ASSERT_GT(switches, 0);

  double base_busy = 0.0, pen_busy = 0.0;
  for (std::size_t sa = 0; sa < a.telemetry.num_sub_accels(); ++sa) {
    base_busy += a.telemetry.sub_accel(sa).busy_ms;
    pen_busy += b.telemetry.sub_accel(sa).busy_ms;
  }
  EXPECT_GT(pen_busy, base_busy);
}

}  // namespace
}  // namespace xrbench::workload
