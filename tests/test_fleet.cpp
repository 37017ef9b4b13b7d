#include "fleet/fleet_simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "fleet/fleet_io.h"
#include "fleet/fleet_report.h"
#include "hw/accelerator.h"
#include "outcome_checks.h"
#include "runtime/policy_registry.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace xrbench::fleet {
namespace {

/// Short two-program catalog so every fleet test stays fast; the programs
/// differ in scenario and duration so scheduling mistakes show up.
std::vector<workload::ScenarioProgram> test_catalog() {
  return {workload::single_phase_program(
              workload::scenario_by_name("Low-Power Wearable"), 200.0),
          workload::single_phase_program(
              workload::scenario_by_name("AR Assistant"), 250.0)};
}

FleetConfig small_config() {
  FleetConfig config;
  config.seed = 7;
  config.arrival_rate_per_s = 6.0;
  config.zipf_s = 1.0;
  config.pool_size = 2;
  config.arrival_window_ms = 1000.0;
  config.admission = "fleet-queue";
  config.classes = {{1.0, 300.0}, {2.0, 1500.0}};
  return config;
}

/// Bit-identical comparison: exact double equality, not
/// EXPECT_DOUBLE_EQ's 4-ULP tolerance — the fleet extends the SweepEngine
/// serial/parallel determinism contract.
void expect_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.offered_load, b.offered_load);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const auto& sa = a.sessions[i];
    const auto& sb = b.sessions[i];
    EXPECT_EQ(sa.spec.arrival_ms, sb.spec.arrival_ms) << i;
    EXPECT_EQ(sa.spec.program_rank, sb.spec.program_rank) << i;
    EXPECT_EQ(sa.spec.priority_class, sb.spec.priority_class) << i;
    EXPECT_EQ(sa.spec.seed, sb.spec.seed) << i;
    EXPECT_EQ(sa.admitted, sb.admitted) << i;
    EXPECT_EQ(sa.start_ms, sb.start_ms) << i;
    EXPECT_EQ(sa.wait_ms, sb.wait_ms) << i;
    EXPECT_EQ(sa.instance, sb.instance) << i;
    const std::string where = "session " + std::to_string(i);
    test::expect_identical(sa.score, sb.score, where);
    EXPECT_EQ(sa.session_qoe, sb.session_qoe) << i;
    EXPECT_EQ(sa.energy_mj, sb.energy_mj) << i;
    EXPECT_EQ(sa.latency_ms, sb.latency_ms) << i;
    test::expect_identical(sa.resilience, sb.resilience, where);
  }
  EXPECT_EQ(a.fleet.admitted, b.fleet.admitted);
  EXPECT_EQ(a.fleet.drop_rate, b.fleet.drop_rate);
  EXPECT_EQ(a.fleet.qoe_p50, b.fleet.qoe_p50);
  EXPECT_EQ(a.fleet.qoe_p99, b.fleet.qoe_p99);
  EXPECT_EQ(a.fleet.latency_p99_ms, b.fleet.latency_p99_ms);
  EXPECT_EQ(a.fleet.energy_per_session_mj, b.fleet.energy_per_session_mj);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].admitted, b.per_class[c].admitted) << c;
    EXPECT_EQ(a.per_class[c].qoe_p99, b.per_class[c].qoe_p99) << c;
  }
}

TEST(FleetWorkload, GenerationIsBitExactAcrossCalls) {
  const auto catalog = test_catalog();
  const auto config = small_config();
  const auto a = FleetWorkload::generate(config, catalog);
  const auto b = FleetWorkload::generate(config, catalog);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms) << i;
    EXPECT_EQ(a[i].program_rank, b[i].program_rank) << i;
    EXPECT_EQ(a[i].priority_class, b[i].priority_class) << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
  }
}

TEST(FleetWorkload, ValidationRejectsNonFiniteRatesAndWeightOverflow) {
  // Configs built in code get the same checks as parsed ones.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double rate : {nan, inf, -inf}) {
    auto config = small_config();
    config.arrival_rate_per_s = rate;
    EXPECT_THROW(validate_fleet_config(config), std::invalid_argument);
  }
  // Each weight finite but their sum infinite, or a NaN weight.
  for (double weight : {1e308, nan}) {
    auto config = small_config();
    config.classes = {{weight, 0.0}, {1e308, 0.0}};
    EXPECT_THROW(validate_fleet_config(config), std::invalid_argument);
  }
  // NaN passes the sign tests of the window, the Zipf exponent and the
  // wait budget; an infinite window would generate max_sessions sessions.
  for (double value : {nan, inf}) {
    auto window = small_config();
    window.arrival_window_ms = value;
    EXPECT_THROW(validate_fleet_config(window), std::invalid_argument);
    auto zipf = small_config();
    zipf.zipf_s = value;
    EXPECT_THROW(validate_fleet_config(zipf), std::invalid_argument);
    auto budget = small_config();
    budget.classes = {{1.0, value}};
    EXPECT_THROW(validate_fleet_config(budget), std::invalid_argument);
  }
  // A pool or a session cap past kMaxFleetSessions would end in bad_alloc;
  // the bound itself passes.
  for (std::size_t n :
       {kMaxFleetSessions + 1, std::size_t{1'000'000'000'000}}) {
    auto pool = small_config();
    pool.pool_size = n;
    EXPECT_THROW(validate_fleet_config(pool), std::invalid_argument) << n;
    auto cap = small_config();
    cap.max_sessions = n;
    EXPECT_THROW(validate_fleet_config(cap), std::invalid_argument) << n;
  }
  auto at_bound = small_config();
  at_bound.pool_size = at_bound.max_sessions = kMaxFleetSessions;
  EXPECT_NO_THROW(validate_fleet_config(at_bound));
}

TEST(FleetWorkload, ArrivalRateOnlyRescalesTheSamePopulation) {
  // Common random numbers across rates: session i draws the same variates
  // at any arrival rate, so doubling the rate halves every gap and keeps
  // ranks/classes identical — drop-rate load sweeps compare like to like.
  const auto catalog = test_catalog();
  auto slow = small_config();
  slow.arrival_rate_per_s = 3.0;
  auto fast = slow;
  fast.arrival_rate_per_s = 6.0;
  const auto a = FleetWorkload::generate(slow, catalog);
  const auto b = FleetWorkload::generate(fast, catalog);
  ASSERT_GE(a.size(), 1u);
  ASSERT_GE(b.size(), a.size());  // compressed arrivals fit more sessions
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_ms, 2.0 * b[i].arrival_ms) << i;
    EXPECT_EQ(a[i].program_rank, b[i].program_rank) << i;
    EXPECT_EQ(a[i].priority_class, b[i].priority_class) << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
  }
}

TEST(FleetWorkload, SessionSeedsFollowTheGoldenStride) {
  EXPECT_EQ(session_seed(7, 0), 7ull ^ 0x9E3779B97F4A7C15ull);
  EXPECT_EQ(session_seed(7, 1), 7ull ^ (2ull * 0x9E3779B97F4A7C15ull));
  EXPECT_NE(session_seed(7, 0), session_seed(7, 1));
  EXPECT_NE(session_seed(7, 0), session_seed(8, 0));
}

TEST(FleetSimulator, ParallelIsByteIdenticalToSerialAt1248Workers) {
  const auto system = hw::make_accelerator('J', 4096);
  const auto config = small_config();
  const auto catalog = test_catalog();
  FleetSimulator serial(0);  // inline: no worker threads at all
  const auto baseline = serial.run(config, catalog, system);
  ASSERT_GT(baseline.fleet.admitted, 0);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    FleetSimulator engine(workers);
    const auto got = engine.run(config, catalog, system);
    expect_identical(got, baseline);
  }
}

TEST(FleetSimulator, SameSeedReplaysTheSameFleet) {
  const auto system = hw::make_accelerator('J', 4096);
  const auto config = small_config();
  const auto catalog = test_catalog();
  FleetSimulator sim(2);
  const auto a = sim.run(config, catalog, system);
  const auto b = sim.run(config, catalog, system);  // engine reuse included
  expect_identical(a, b);
}

TEST(FleetSimulator, DropRateIsMonotoneInOfferedLoad) {
  const auto system = hw::make_accelerator('J', 4096);
  const auto catalog = test_catalog();
  auto config = small_config();
  config.pool_size = 1;
  config.classes = {{1.0, 150.0}, {2.0, 500.0}};
  FleetSimulator sim(4);
  double prev_drop = -1.0;
  double prev_load = 0.0;
  for (double rate : {2.0, 5.0, 10.0, 20.0}) {
    config.arrival_rate_per_s = rate;
    const auto result = sim.run(config, catalog, system);
    EXPECT_GT(result.offered_load, prev_load);
    EXPECT_GE(result.fleet.drop_rate, prev_drop) << "rate " << rate;
    prev_drop = result.fleet.drop_rate;
    prev_load = result.offered_load;
  }
  EXPECT_GT(prev_drop, 0.0);  // the sweep must actually reach overload
}

TEST(FleetSimulator, HighPriorityClassKeepsTailQoEUnderOverload) {
  const auto system = hw::make_accelerator('J', 4096);
  const auto catalog = test_catalog();
  auto config = small_config();
  config.pool_size = 1;
  config.arrival_rate_per_s = 8.0;
  config.arrival_window_ms = 1200.0;
  config.classes = {{1.0, 500.0}, {2.0, 3000.0}};
  FleetSimulator sim(4);
  const auto result = sim.run(config, catalog, system);
  EXPECT_GT(result.offered_load, 1.0);  // genuinely overloaded
  ASSERT_EQ(result.per_class.size(), 2u);
  EXPECT_GT(result.per_class[0].offered, 0);
  EXPECT_GT(result.per_class[1].offered, 0);
  // Class 0 outranks the backlog, so the QoE its worst sessions see must be
  // at least as good as class 1's worst.
  EXPECT_GE(result.per_class[0].qoe_p99, result.per_class[1].qoe_p99);
  EXPECT_GE(result.per_class[0].mean_qoe, result.per_class[1].mean_qoe);
}

TEST(FleetSimulator, SingleSessionFleetMatchesStandaloneTrial) {
  // The compatibility anchor: a fleet of one session under admit-all is the
  // same computation as one SweepEngine program trial at the session seed.
  const auto system = hw::make_accelerator('J', 4096);
  const auto program = test_catalog()[1];
  FleetConfig config;
  config.seed = 11;
  config.arrival_rate_per_s = 1.0;
  config.arrival_window_ms = 60000.0;
  config.max_sessions = 1;
  config.pool_size = 1;
  config.admission = "admit-all";
  FleetSimulator sim(2);
  const auto fleet = sim.run(config, {program}, system);
  ASSERT_EQ(fleet.sessions.size(), 1u);
  ASSERT_TRUE(fleet.sessions[0].admitted);
  EXPECT_EQ(fleet.sessions[0].wait_ms, 0.0);

  core::HarnessOptions opt;
  opt.run.seed = session_seed(config.seed, 0);
  opt.dynamic_trials = 1;
  core::SweepEngine engine(0);
  const auto standalone =
      engine.run_program_points({{program.name, system, opt, program}});
  ASSERT_EQ(standalone.size(), 1u);
  const auto& session = fleet.sessions[0];
  const auto& b = standalone[0];
  test::expect_identical(session.score, b.score, "session 0");
  // Zero wait, so the wait discount is the identity and the session
  // latency is the trial's mean executed latency.
  EXPECT_EQ(session.session_qoe, b.score.qoe);
  EXPECT_EQ(session.latency_ms, b.last.mean_latency_ms);
  test::expect_identical(session.resilience, b.last.resilience, "session 0");
}

TEST(FleetSimulator, SessionsMatchARerunOfTheirSessionPoint) {
  // Every admitted session's latency, resilience counters and energy are
  // those of a Harness re-run of its session_point, the run xrbench_cli
  // prints for the last admitted session, at any worker count.
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto catalog = test_catalog();
  auto config = small_config();
  config.governor = "ondemand";
  core::HarnessOptions base;
  base.run.faults.transient_rate = 0.05;
  base.run.faults.max_retries = 1;
  for (std::size_t workers : {0u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    FleetSimulator sim(workers);
    const auto result = sim.run(config, catalog, system, base);
    std::int64_t checked = 0;
    std::int64_t faults = 0;
    for (const auto& session : result.sessions) {
      if (!session.admitted) continue;
      const auto point =
          session_point(config, catalog, system, base, session.spec);
      EXPECT_EQ(point.options.governor, "ondemand");
      const auto run = core::Harness(point.system, point.options)
                           .run_program_once(point.program, session.spec.seed);
      const auto summary = core::summarize_trial(run);
      const std::string where =
          "session " + std::to_string(session.spec.session_id);
      EXPECT_EQ(session.latency_ms, session.wait_ms + summary.mean_latency_ms)
          << where;
      test::expect_identical(session.resilience, summary.resilience, where);
      EXPECT_EQ(session.energy_mj,
                core::score_scenario(run, base.score).total_energy_mj)
          << where;
      faults += session.resilience.transient_faults;
      ++checked;
    }
    EXPECT_EQ(checked, result.fleet.admitted);
    EXPECT_GT(checked, 1);
    EXPECT_GT(faults, 0);
  }
}

TEST(FleetSimulator, FleetQueueIsRegisteredAndRejectsUnknownPolicies) {
  const auto names =
      runtime::PolicyRegistry::instance().admission_names();
  bool found = false;
  for (const auto& name : names) found = found || name == "fleet-queue";
  EXPECT_TRUE(found);

  const auto system = hw::make_accelerator('J', 4096);
  auto config = small_config();
  config.admission = "no-such-policy";
  FleetSimulator sim(0);
  EXPECT_THROW(sim.run(config, test_catalog(), system),
               std::invalid_argument);
}

TEST(FleetIo, ConfigRoundTripsThroughText) {
  FleetConfig config;
  config.seed = 99;
  config.arrival_rate_per_s = 5.5;
  config.zipf_s = 0.75;
  config.pool_size = 3;
  config.arrival_window_ms = 2500.0;
  config.max_sessions = 64;
  config.admission = "fleet-queue";
  config.scheduler = "edf";
  config.governor = "deadline-aware";
  config.classes = {{1.0, 120.0}, {4.0, 900.0}};
  config.programs = {"Scenario Hand-Off", "Multi-User Co-Presence"};

  const auto setup = fleet_from_config_text(to_config_text(config));
  EXPECT_EQ(setup.config.seed, config.seed);
  EXPECT_EQ(setup.config.arrival_rate_per_s, config.arrival_rate_per_s);
  EXPECT_EQ(setup.config.zipf_s, config.zipf_s);
  EXPECT_EQ(setup.config.pool_size, config.pool_size);
  EXPECT_EQ(setup.config.arrival_window_ms, config.arrival_window_ms);
  EXPECT_EQ(setup.config.max_sessions, config.max_sessions);
  EXPECT_EQ(setup.config.admission, config.admission);
  EXPECT_EQ(setup.config.scheduler, config.scheduler);
  EXPECT_EQ(setup.config.governor, config.governor);
  ASSERT_EQ(setup.config.classes.size(), 2u);
  EXPECT_EQ(setup.config.classes[0].weight, 1.0);
  EXPECT_EQ(setup.config.classes[0].wait_budget_ms, 120.0);
  EXPECT_EQ(setup.config.classes[1].weight, 4.0);
  EXPECT_EQ(setup.config.classes[1].wait_budget_ms, 900.0);
  ASSERT_EQ(setup.config.programs, config.programs);
  ASSERT_EQ(setup.catalog.size(), 2u);
  EXPECT_EQ(setup.catalog[0].name, "Scenario Hand-Off");
  EXPECT_EQ(setup.catalog[1].name, "Multi-User Co-Presence");
  // The seed reloads over the whole 64-bit range, as --seed takes it.
  for (const std::uint64_t seed :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    config.seed = seed;
    EXPECT_EQ(fleet_from_config_text(to_config_text(config)).config.seed,
              seed);
  }
}

TEST(FleetIo, NonShortDoublesRoundTripExactly) {
  // Every fleet double reloads bit for bit, including values with no short
  // decimal form (a 12-digit writer reloaded 1/3 as 0.33333333333300003).
  FleetConfig config;
  config.arrival_rate_per_s = 1.0 / 3.0;
  config.zipf_s = 0.1 + 0.2;
  config.arrival_window_ms = 1000.0 / 3.0;
  config.classes = {{2.0 / 3.0, 100.0 / 7.0}};
  config.programs = {"Scenario Hand-Off"};
  const auto setup = fleet_from_config_text(to_config_text(config));
  EXPECT_EQ(setup.config.arrival_rate_per_s, config.arrival_rate_per_s);
  EXPECT_EQ(setup.config.zipf_s, config.zipf_s);
  EXPECT_EQ(setup.config.arrival_window_ms, config.arrival_window_ms);
  ASSERT_EQ(setup.config.classes.size(), 1u);
  EXPECT_EQ(setup.config.classes[0].weight, config.classes[0].weight);
  EXPECT_EQ(setup.config.classes[0].wait_budget_ms,
            config.classes[0].wait_budget_ms);
}

TEST(FleetIo, InlineProgramsFormTheCatalog) {
  const std::string text = R"(
[fleet]
seed = 3
arrival_rate_per_s = 2

[program]
name = Glance
[phase]
scenario = AR Assistant
duration_ms = 300

[program]
name = Idle
[phase]
scenario = Low-Power Wearable
duration_ms = 400
)";
  const auto setup = fleet_from_config_text(text);
  ASSERT_EQ(setup.catalog.size(), 2u);
  EXPECT_EQ(setup.catalog[0].name, "Glance");
  EXPECT_EQ(setup.catalog[1].name, "Idle");
  EXPECT_DOUBLE_EQ(setup.catalog[1].total_duration_ms(), 400.0);
}

TEST(FleetIo, NamedCatalogResolvesInlineDefinitionsFirst) {
  const std::string text = R"(
[fleet]
seed = 3
arrival_rate_per_s = 2
programs = Scenario Hand-Off, Glance

[program]
name = Glance
[phase]
scenario = AR Assistant
duration_ms = 300
)";
  const auto setup = fleet_from_config_text(text);
  ASSERT_EQ(setup.catalog.size(), 2u);
  EXPECT_EQ(setup.catalog[0].name, "Scenario Hand-Off");
  EXPECT_EQ(setup.catalog[1].name, "Glance");
}

/// Asserts that parsing `text` is rejected with a message naming
/// `fragment` and the 1-based source line `line`.
void expect_reject(const std::string& text, const std::string& fragment,
                   int line) {
  try {
    fleet_from_config_text(text);
    FAIL() << "expected rejection mentioning '" << fragment << "'";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
    EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
        << what;
  }
}

TEST(FleetIo, RejectsMalformedSectionsWithSourceLines) {
  expect_reject("[fleet]\nseed = 1\npool_size = 0\n", "pool_size", 3);
  expect_reject("[fleet]\nbogus_key = 1\n", "unknown [fleet] key", 2);
  expect_reject("[fleet]\nseed = 1\n\n[turbo]\nx = 1\n", "[turbo]", 4);
  expect_reject("[fleet]\narrival_rate_per_s = -3\n", "arrival_rate_per_s",
                2);
  expect_reject("[fleet]\narrival_rate_per_s = nan\n", "arrival_rate_per_s",
                2);
  expect_reject("[fleet]\nseed = 1\narrival_rate_per_s = inf\n",
                "arrival_rate_per_s", 3);
  expect_reject("[fleet]\nseed = 1\n\n[class]\nweight = 1e308\n\n[class]\n"
                "weight = 1e308\n",
                "weights overflow", 7);
  expect_reject("[fleet]\nseed = 1\n\n[class]\nweight = -1\n", "weight", 5);
  expect_reject("[fleet]\nseed = 1\n\n[class]\nweigth = 1\n",
                "unknown [class] key 'weigth'", 5);
  expect_reject("[fleet]\nseed = 1\nzipf_s = abc\n", "not a number", 3);
  // Non-finite values, which pass the sign tests.
  expect_reject("[fleet]\nseed = 1\narrival_window_ms = nan\n",
                "arrival_window_ms", 3);
  expect_reject("[fleet]\narrival_window_ms = inf\n", "arrival_window_ms", 2);
  expect_reject("[fleet]\nseed = 1\nzipf_s = nan\n", "zipf_s", 3);
  expect_reject("[fleet]\nseed = 1\n\n[class]\nweight = 1\n"
                "wait_budget_ms = nan\n",
                "wait_budget_ms", 6);
  // Counts past kMaxFleetSessions, which used to end in bad_alloc.
  expect_reject("[fleet]\nseed = 1\npool_size = 1000000000000\n",
                "pool_size", 3);
  expect_reject("[fleet]\narrival_rate_per_s = 1e9\n"
                "max_sessions = 1000000000000\n",
                "max_sessions", 3);
  expect_reject("[fleet]\nseed = 1\n\nmax_sessions = 100001\n",
                "max_sessions", 4);
  EXPECT_NO_THROW(fleet_from_config_text(
      "[fleet]\npool_size = 100000\nmax_sessions = 100000\n"));
  // An unknown catalog name.
  expect_reject("[fleet]\nseed = 1\nprograms = Nope\n", "Nope", 3);
  // Unknown policy names, before any run starts.
  expect_reject("[fleet]\nseed = 1\nadmission = Nope\n",
                "unknown admission policy 'Nope'", 3);
  expect_reject("[fleet]\nseed = 1\nscheduler = Nope\n",
                "unknown scheduler 'Nope'", 3);
  expect_reject("[fleet]\nseed = 1\ngovernor = Nope\n",
                "unknown governor 'Nope'", 3);
  // A seed past 2^64 - 1 or below 0.
  expect_reject("[fleet]\nseed = 18446744073709551616\n", "seed", 2);
  expect_reject("[fleet]\nseed = -1\n", "seed", 2);
  // Inline-program grammar errors surface with their lines too.
  expect_reject(
      "[fleet]\nseed = 1\n\n[phase]\nscenario = AR Assistant\n"
      "duration_ms = 100\n",
      "[phase]", 4);
  EXPECT_THROW(fleet_from_config_text("[class]\nweight = 1\n"),
               std::invalid_argument);  // missing [fleet] entirely
}

TEST(FleetReport, PrintsFleetAndPerClassRows) {
  const auto system = hw::make_accelerator('J', 4096);
  FleetSimulator sim(2);
  const auto result = sim.run(small_config(), test_catalog(), system);
  std::ostringstream os;
  print_fleet_report(os, result);
  const auto text = os.str();
  EXPECT_NE(text.find("offered load"), std::string::npos);
  EXPECT_NE(text.find("class-0"), std::string::npos);
  EXPECT_NE(text.find("class-1"), std::string::npos);
  EXPECT_NE(text.find("qoe_p99"), std::string::npos);
}

}  // namespace
}  // namespace xrbench::fleet
