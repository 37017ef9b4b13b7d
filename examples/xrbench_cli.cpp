// xrbench_cli — full command-line front end to the harness, driven by flags
// and/or the INI configs of hw::config_io / workload::scenario_io:
//
//   xrbench_cli [options]
//     --accel <A..M>            Table-5 design (default J)
//     --pes <n>                 total PEs (default 8192)
//     --hw-config <file.ini>    load a custom accelerator system instead
//     --scenario <name>         run one Table-2 scenario (default: all)
//     --scenario-config <file>  run a custom scenario from an INI file
//     --program <name>          run a registered scenario program
//     --program-config <file>   run a scenario program from an INI file
//     --fleet                   run a fleet simulation with the default
//                               [fleet] config (pool of 2, extension-program
//                               catalog); --seed sets the fleet seed and
//                               --csv dumps the per-session ledger
//     --fleet-config <file>     run a fleet simulation from an INI file
//                               ([fleet] + [class] + inline programs; see
//                               src/fleet/fleet_io.h)
//     --scheduler <name>        any registered scheduler (see --list-policies)
//     --governor <name>         any registered DVFS governor
//     --admission <name>        admission control: admit-all (default) or
//                               drop-early (telemetry-predictive rejection)
//     --fault-rate <p>          transient dispatch-failure probability [0,1]
//     --fault-retries <n>       bounded retries per failed dispatch
//     --fault-backoff <ms>      simulated-time retry backoff
//     --fault-outage-rate <hz>  sub-accelerator outage windows per second
//     --fault-outage-ms <ms>    outage window duration
//     --fault-throttle-rate <hz> thermal-throttle windows per second
//     --fault-throttle-ms <ms>  throttle window duration
//     --fault-throttle-level <l> DVFS level cap inside throttle windows
//     --fault-checkpoint        resume killed inferences from the last
//                               completed layer instead of layer 0
//     --fault-checkpoint-overhead <ms>  restore cost per resumed dispatch
//     --duration <ms>           run duration (default 1000)
//     --trials <n>              trials for dynamic scenarios (default 20)
//     --seed <n>                base seed (default 42)
//     --no-jitter               disable sensor jitter
//     --enmax <mJ>              energy-score Enmax (default 1500)
//     --k <val>                 real-time sigmoid steepness (default 15)
//     --csv <file>              dump per-scenario scores to CSV
//     --timeline                print execution timelines
//     --report                  print the per-sub-accelerator energy
//                               breakdown (dynamic/static/idle mJ, sourced
//                               from the runtime telemetry)
//     --energy-csv <file>       dump that breakdown to CSV (scenario and
//                               program runs)
//     --list-policies           print registered schedulers/governors/programs
//     --sweep                   run the Table-5 family full-suite sweep
//                               (every design x {4096, 8192} PEs, default
//                               DVFS ladders) and print one score table
//
// Program runs go through the SweepEngine, so XRBENCH_THREADS picks the
// worker count — the report is byte-identical at any count.
//
// Examples:
//   xrbench_cli --accel M --pes 8192
//   xrbench_cli --scenario "AR Gaming" --scheduler edf --timeline
//   xrbench_cli --program "Scenario Hand-Off" --governor deadline-aware
//   xrbench_cli --program-config examples/configs/handoff_program.ini
//   xrbench_cli --hw-config my_chip.ini --csv scores.csv

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/harness.h"
#include "core/report.h"
#include "core/sweep.h"
#include "fleet/fleet_io.h"
#include "fleet/fleet_report.h"
#include "fleet/fleet_simulator.h"
#include "fleet/fleet_workload.h"
#include "hw/config_io.h"
#include "runtime/policy_registry.h"
#include "util/ini.h"
#include "util/table.h"
#include "workload/scenario_io.h"

using namespace xrbench;

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "xrbench_cli: " << message
            << "\nSee the header comment of examples/xrbench_cli.cpp for "
               "usage.\n";
  std::exit(2);
}

/// The value of numeric flag `flag`: exactly one finite number that fits
/// in T (util::parse_number).
template <typename T>
T number(const std::string& flag, const std::string& text) {
  const auto value = util::parse_number<T>(text);
  if (!value) {
    usage_error(flag + " is not " +
                (std::is_same_v<T, double>          ? "a finite number"
                 : std::is_same_v<T, std::uint64_t> ? "a non-negative integer"
                                                    : "an integer") +
                ": '" + text + "'");
  }
  return *value;
}

void list_policies() {
  const auto& registry = runtime::PolicyRegistry::instance();
  std::cout << "Schedulers:\n";
  for (const auto& name : registry.scheduler_names()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "Governors:\n";
  for (const auto& name : registry.governor_names()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "Admission policies:\n";
  for (const auto& name : registry.admission_names()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "Programs:\n";
  for (const auto& program : workload::extension_programs()) {
    std::cout << "  " << program.name << "\n";
  }
}

/// --sweep: every Table-5 design at 4096 and 8192 total PEs with the
/// default DVFS ladder attached, scored against the full suite and printed
/// as one table. XRBENCH_THREADS picks the worker count; the table is
/// byte-identical at any count.
int run_sweep(const core::HarnessOptions& opt) {
  std::vector<core::SweepPoint> points;
  for (char id : hw::accelerator_ids()) {
    for (std::int64_t pes : {std::int64_t{4096}, std::int64_t{8192}}) {
      points.push_back({std::string(1, id) + "@" + std::to_string(pes),
                        hw::with_default_dvfs(hw::make_accelerator(id, pes)),
                        opt});
    }
  }
  core::SweepEngine engine;
  const auto scores = engine.run_suite_points(points);

  std::cout << "=== XRBench sweep: Table-5 family, full suite ===\n\n";
  util::TablePrinter table({"Design", "Overall", "Realtime", "Energy", "QoE"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto& score = scores[p].score;
    table.add_row({points[p].label, util::fmt_double(score.overall),
                   util::fmt_double(score.realtime),
                   util::fmt_double(score.energy), util::fmt_double(score.qoe)});
  }
  table.print(std::cout);
  std::cout << "\nSweep points: " << points.size() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  char accel_id = 'J';
  std::int64_t pes = 8192;
  std::optional<std::string> hw_config;
  std::optional<std::string> scenario_name;
  std::optional<std::string> scenario_config;
  std::optional<std::string> program_name;
  std::optional<std::string> program_config;
  bool fleet_flag = false;
  std::optional<std::string> fleet_config;
  bool sweep_flag = false;
  std::optional<std::string> csv_path;
  std::optional<std::string> energy_csv_path;
  bool timeline = false;
  bool report = false;
  bool scheduler_flag = false;
  bool governor_flag = false;
  bool admission_flag = false;
  bool seed_flag = false;
  core::HarnessOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--accel") {
        const std::string id = next();
        if (id.size() != 1) {
          usage_error("--accel must be one design letter A..M, got '" + id +
                      "'");
        }
        accel_id = id[0];
      }
      else if (arg == "--pes") pes = number<std::int64_t>(arg, next());
      else if (arg == "--hw-config") hw_config = next();
      else if (arg == "--scenario") scenario_name = next();
      else if (arg == "--scenario-config") scenario_config = next();
      else if (arg == "--program") program_name = next();
      else if (arg == "--program-config") program_config = next();
      else if (arg == "--fleet") fleet_flag = true;
      else if (arg == "--fleet-config") fleet_config = next();
      else if (arg == "--scheduler") {
        opt.scheduler = runtime::PolicyRegistry::checked_scheduler(next());
        scheduler_flag = true;
      } else if (arg == "--governor") {
        opt.governor = runtime::PolicyRegistry::checked_governor(next());
        governor_flag = true;
      } else if (arg == "--admission") {
        opt.admission = runtime::PolicyRegistry::checked_admission(next());
        admission_flag = true;
      }
      else if (arg == "--fault-rate")
        opt.run.faults.transient_rate = number<double>(arg, next());
      else if (arg == "--fault-retries")
        opt.run.faults.max_retries = number<int>(arg, next());
      else if (arg == "--fault-backoff")
        opt.run.faults.retry_backoff_ms = number<double>(arg, next());
      else if (arg == "--fault-outage-rate")
        opt.run.faults.outage_rate_per_s = number<double>(arg, next());
      else if (arg == "--fault-outage-ms")
        opt.run.faults.outage_ms = number<double>(arg, next());
      else if (arg == "--fault-throttle-rate")
        opt.run.faults.throttle_rate_per_s = number<double>(arg, next());
      else if (arg == "--fault-throttle-ms")
        opt.run.faults.throttle_ms = number<double>(arg, next());
      else if (arg == "--fault-throttle-level")
        opt.run.faults.throttle_max_level =
            static_cast<std::size_t>(number<std::uint64_t>(arg, next()));
      else if (arg == "--fault-checkpoint")
        opt.run.faults.checkpoint = true;
      else if (arg == "--fault-checkpoint-overhead")
        opt.run.faults.checkpoint_overhead_ms = number<double>(arg, next());
      else if (arg == "--duration")
        opt.run.duration_ms = number<double>(arg, next());
      else if (arg == "--trials") {
        opt.dynamic_trials = number<int>(arg, next());
        if (opt.dynamic_trials < 1) {
          usage_error("--trials must be at least 1, got '" +
                      std::string(argv[i]) + "'");
        }
      }
      else if (arg == "--seed") {
        opt.run.seed = number<std::uint64_t>(arg, next());
        seed_flag = true;
      }
      else if (arg == "--no-jitter") opt.run.enable_jitter = false;
      else if (arg == "--enmax")
        opt.score.enmax_mj = number<double>(arg, next());
      else if (arg == "--k") opt.score.k = number<double>(arg, next());
      else if (arg == "--csv") csv_path = next();
      else if (arg == "--energy-csv") energy_csv_path = next();
      else if (arg == "--timeline") timeline = true;
      else if (arg == "--report") report = true;
      else if (arg == "--sweep") sweep_flag = true;
      else if (arg == "--list-policies") {
        list_policies();
        return 0;
      }
      else usage_error("unknown option '" + arg + "'");
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }

  try {
    if (sweep_flag) return run_sweep(opt);

    const auto system = hw_config ? hw::load_accelerator(*hw_config)
                                  : hw::make_accelerator(accel_id, pes);

    // Shared tail of the program/scenario branches: the telemetry-sourced
    // energy breakdown, printed and/or dumped per the flags.
    auto emit_breakdown = [&](const runtime::ScenarioRunResult& run) {
      if (report) {
        std::cout << "\n";
        core::print_energy_breakdown(std::cout, run);
      }
      if (energy_csv_path) {
        core::write_energy_breakdown_csv(*energy_csv_path, run);
        std::cout << "\nEnergy breakdown written to " << *energy_csv_path
                  << "\n";
      }
    };

    if (fleet_flag || fleet_config) {
      fleet::FleetSetup setup;
      if (fleet_config) {
        setup = fleet::load_fleet(*fleet_config);
      } else {
        setup.catalog = fleet::resolve_catalog(setup.config);
      }
      // Explicit flags override the fleet config's choices, as everywhere.
      if (seed_flag) setup.config.seed = opt.run.seed;
      if (scheduler_flag) setup.config.scheduler = opt.scheduler;
      if (governor_flag) setup.config.governor = opt.governor;
      if (admission_flag) setup.config.admission = opt.admission;
      fleet::FleetSimulator sim;  // XRBENCH_THREADS picks the worker count
      const auto result = sim.run(setup.config, setup.catalog, system, opt);
      fleet::print_fleet_report(std::cout, result);
      // The last admitted session's run, re-run from its session point; an
      // empty run when no session was admitted.
      runtime::ScenarioRunResult last;
      const auto admitted =
          std::find_if(result.sessions.rbegin(), result.sessions.rend(),
                       [](const auto& session) { return session.admitted; });
      if ((timeline || report || energy_csv_path) &&
          admitted != result.sessions.rend()) {
        const auto point = fleet::session_point(setup.config, setup.catalog,
                                                system, opt, admitted->spec);
        last = core::Harness(point.system, point.options)
                   .run_program_once(point.program, admitted->spec.seed);
      }
      if (timeline) {
        std::cout << "\n";
        core::print_timeline(std::cout, last, last.duration_ms, 10.0);
      }
      emit_breakdown(last);
      if (csv_path) {
        fleet::write_fleet_sessions_csv(*csv_path, result);
        std::cout << "\nSession ledger written to " << *csv_path << "\n";
      }
      return 0;
    }

    if (program_name || program_config) {
      auto program = program_config
                         ? workload::load_program(*program_config)
                         : workload::program_by_name(*program_name);
      // Explicit flags override the policies a program config names.
      if (scheduler_flag) program.scheduler.clear();
      if (governor_flag) program.governor.clear();
      if (admission_flag) program.admission.clear();
      // Explicit fault flags likewise override a program's [faults] profile
      // (RunConfig::faults only wins over the program spec when the program
      // names none, so clear it).
      if (opt.run.faults.enabled()) program.faults = runtime::FaultSpec{};
      // One point through the sweep engine: XRBENCH_THREADS (or hardware
      // concurrency) parallelizes the trials, byte-identically to serial.
      core::SweepEngine engine;
      const auto out =
          engine.run_program_points({{program.name, system, opt, program}})
              .front();
      const auto last = core::Harness(system, opt).run_program_once(
          program, core::last_trial_seed(opt, out.trials));
      core::print_scenario_report(std::cout, out.score, out.trials, last);
      if (timeline) {
        std::cout << "\n";
        core::print_timeline(std::cout, last, last.duration_ms, 10.0);
      }
      emit_breakdown(last);
      return 0;
    }

    core::Harness harness(system, opt);

    if (scenario_name || scenario_config) {
      const auto scenario = scenario_config
                                ? workload::load_scenario(*scenario_config)
                                : workload::scenario_by_name(*scenario_name);
      const auto out = harness.run_scenario(scenario);
      const auto last =
          harness.run_once(scenario, core::last_trial_seed(opt, out.trials));
      core::print_scenario_report(std::cout, out.score, out.trials, last);
      if (timeline) {
        std::cout << "\n";
        core::print_timeline(std::cout, last);
      }
      emit_breakdown(last);
      return 0;
    }

    if (energy_csv_path) {
      // The breakdown CSV is a per-run artifact; a full-suite run has one
      // per scenario and no canonical choice, so fail loudly instead of
      // silently dropping the flag.
      usage_error("--energy-csv requires --scenario or --program");
    }
    const auto outcome = harness.run_suite();
    core::print_benchmark_report(std::cout, outcome);
    // Each scenario's final trial, re-run for its breakdown and timeline.
    std::vector<runtime::ScenarioRunResult> final_trials;
    if (report || timeline) {
      const auto& suite = workload::benchmark_suite();
      for (std::size_t s = 0; s < suite.size(); ++s) {
        final_trials.push_back(harness.run_once(
            suite[s], core::last_trial_seed(opt, outcome.trials[s])));
      }
    }
    if (report) {
      for (const auto& run : final_trials) {
        std::cout << "\n";
        core::print_energy_breakdown(std::cout, run);
      }
    }
    if (timeline) {
      for (const auto& run : final_trials) {
        std::cout << "\n";
        core::print_timeline(std::cout, run, 400.0, 8.0);
      }
    }
    if (csv_path) {
      core::write_scores_csv(*csv_path, outcome);
      std::cout << "\nScores written to " << *csv_path << "\n";
    }
    std::cout << "\nXRBench SCORE: " << outcome.score.overall << "\n";
  } catch (const std::exception& e) {
    std::cerr << "xrbench_cli: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
