// Fault-resilience study: QoE and energy of the Bursty Notification session
// under the deterministic fault injector, swept over transient-failure rate,
// scheduler and governor, plus a recovery-policy ablation at a fixed 5%
// rate. The fault schedule is derived purely from the trial seed (transient
// decisions are a pure hash of (task, frame, attempt)), so every policy
// stack in a column faces the exact same adversity — the deltas are the
// policies, not the dice.
//
// Every point runs through the SweepEngine, so serial (XRBENCH_THREADS=0)
// and parallel runs produce byte-identical reports (CI diffs 1 vs 4
// workers).

#include <iostream>
#include <vector>

#include "core/sweep.h"
#include "hw/accelerator.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/scenario_program.h"

using namespace xrbench;

namespace {

// Fault profile at transient rate r: outages and throttles scale with r so
// the sweep exercises all three fault classes without extra axes.
runtime::FaultSpec profile(double rate, int retries, double backoff_ms) {
  runtime::FaultSpec f;
  f.transient_rate = rate;
  f.outage_rate_per_s = rate * 10.0;  // e.g. 0.5/s at the 5% point
  f.outage_ms = 20.0;
  f.throttle_rate_per_s = rate * 20.0;
  f.throttle_ms = 15.0;
  f.throttle_max_level = 1;
  f.max_retries = retries;
  f.retry_backoff_ms = backoff_ms;
  return f;
}

}  // namespace

int main() {
  util::CsvWriter csv("bench_output/fault_resilience.csv");
  csv.header({"section", "fault_rate", "scheduler", "governor", "recovery",
              "qoe", "overall", "energy_mj", "drop_rate"});

  const auto system =
      hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto& program =
      workload::program_by_name("Bursty Notification Over Base");
  const std::vector<std::string> schedulers = {
      "latency-greedy", "round-robin", "edf", "slack-aware", "least-loaded"};
  const std::vector<std::string> governors = {"fixed-nominal",
                                              "deadline-aware", "ondemand"};
  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.1};

  auto make_point = [&](double rate, const std::string& sched,
                        const std::string& gov, int retries,
                        double backoff_ms, const std::string& admission) {
    core::HarnessOptions opt;
    opt.scheduler = sched;
    opt.governor = gov;
    opt.admission = admission;
    opt.dynamic_trials = 4;
    opt.run.faults = profile(rate, retries, backoff_ms);
    core::ProgramSweepPoint point;
    point.system = system;
    point.options = opt;
    point.program = program;
    // The sweep varies the policies explicitly; a program's own preferences
    // would silently override the axes under study.
    point.program.scheduler.clear();
    point.program.governor.clear();
    point.program.admission.clear();
    point.program.faults = runtime::FaultSpec{};
    return point;
  };

  // ---- Section A: QoE / energy vs fault rate (recovery on) --------------
  std::vector<core::ProgramSweepPoint> points;
  for (double rate : rates) {
    for (const auto& sched : schedulers) {
      for (const auto& gov : governors) {
        points.push_back(make_point(rate, sched, gov, 2, 2.0, "admit-all"));
      }
    }
  }
  const std::size_t section_a = points.size();

  // ---- Section B: recovery ablation at the 5% point ---------------------
  // Identical fault schedule for all three stacks; only the response
  // differs: give up immediately, retry with backoff, or retry plus
  // drop-early predictive admission.
  struct Recovery {
    const char* name;
    int retries;
    double backoff_ms;
    const char* admission;
  };
  const std::vector<Recovery> recoveries = {
      {"no-recovery", 0, 0.0, "admit-all"},
      {"retry", 2, 2.0, "admit-all"},
      {"retry+drop-early", 2, 2.0, "drop-early"},
  };
  for (const auto& rec : recoveries) {
    for (const auto& sched : schedulers) {
      points.push_back(make_point(0.05, sched, "deadline-aware", rec.retries,
                                  rec.backoff_ms, rec.admission));
    }
  }
  const std::size_t section_b_end = points.size();

  // ---- Section C: recovery ladder on correlated fault domains -----------
  // Four rungs on the IDENTICAL fault schedule (retries, checkpointing and
  // the scheduler are response-side knobs — none feeds the window/transient
  // streams): give up, retry from layer 0, retry from the checkpointed
  // layer, and finally place around units whose domain recently killed
  // work. Runs on the 4-way heterogeneous design M with its two chiplets as
  // correlated fault domains, so a domain outage downs a WS+OS pair at once.
  auto ladder_system =
      hw::with_default_dvfs(hw::make_accelerator('M', 4096));
  ladder_system.fault_domains = {{0, 1}, {2, 3}};
  struct Rung {
    const char* name;
    int retries;
    bool checkpoint;
    const char* sched;
  };
  const std::vector<Rung> ladder = {
      {"none", 0, false, "edf"},
      {"retry", 2, false, "edf"},
      {"retry+ckpt", 2, true, "edf"},
      {"retry+ckpt+fault-aware", 2, true, "fault-aware"},
  };
  for (const auto& rung : ladder) {
    core::HarnessOptions opt;
    opt.scheduler = rung.sched;
    opt.governor = "deadline-aware";
    opt.admission = "admit-all";
    opt.dynamic_trials = 6;
    opt.run.faults = profile(0.05, rung.retries, 2.0);
    // Degradation-heavy variant of the 5% profile: longer outages make
    // mid-flight kills (the events checkpoints answer) expensive, and
    // denser throttle windows create slowed-but-alive units that placement
    // policies can route around.
    opt.run.faults.outage_ms = 40.0;
    opt.run.faults.throttle_rate_per_s = 2.0;
    opt.run.faults.throttle_ms = 30.0;
    opt.run.faults.checkpoint = rung.checkpoint;
    opt.run.faults.checkpoint_overhead_ms = 0.5;
    core::ProgramSweepPoint point;
    point.system = ladder_system;
    point.options = opt;
    point.program = program;
    point.program.scheduler.clear();
    point.program.governor.clear();
    point.program.admission.clear();
    point.program.faults = runtime::FaultSpec{};
    points.push_back(std::move(point));
  }

  core::SweepEngine engine;
  const auto outcomes = engine.run_program_points(points);

  std::cout << "=== QoE / energy vs fault rate (Bursty Notification, J @ 4K "
               "PEs, retries 2, backoff 2 ms) ===\n\n";
  for (const auto& gov : governors) {
    std::cout << "Governor: " << gov << "\n";
    util::TablePrinter table({"Scheduler", "r=0 QoE", "r=0.02 QoE",
                              "r=0.05 QoE", "r=0.1 QoE", "r=0.1 mJ"});
    for (std::size_t s = 0; s < schedulers.size(); ++s) {
      std::vector<std::string> row = {schedulers[s]};
      double last_mj = 0.0;
      for (std::size_t r = 0; r < rates.size(); ++r) {
        const std::size_t g =
            static_cast<std::size_t>(&gov - governors.data());
        const std::size_t i =
            (r * schedulers.size() + s) * governors.size() + g;
        const auto& out = outcomes[i];
        row.push_back(util::fmt_double(out.score.qoe));
        last_mj = out.score.total_energy_mj;
        csv.row({"rate_sweep", util::CsvWriter::cell(rates[r]), schedulers[s],
                 gov, "retry",
                 util::CsvWriter::cell(out.score.qoe),
                 util::CsvWriter::cell(out.score.overall),
                 util::CsvWriter::cell(out.score.total_energy_mj),
                 util::CsvWriter::cell(out.score.frame_drop_rate)});
      }
      row.push_back(util::fmt_double(last_mj, 1));
      table.add_row(row);
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "=== Recovery ablation at 5% transient rate (deadline-aware "
               "governor, identical fault schedule) ===\n\n";
  util::TablePrinter ablation({"Scheduler", "no-recovery QoE", "retry QoE",
                               "retry+drop-early QoE", "drop-early mJ"});
  double qoe_no_recovery = 0.0;
  double qoe_retry_drop_early = 0.0;
  for (std::size_t s = 0; s < schedulers.size(); ++s) {
    std::vector<std::string> row = {schedulers[s]};
    double last_mj = 0.0;
    for (std::size_t rec = 0; rec < recoveries.size(); ++rec) {
      const std::size_t i = section_a + rec * schedulers.size() + s;
      const auto& out = outcomes[i];
      row.push_back(util::fmt_double(out.score.qoe));
      last_mj = out.score.total_energy_mj;
      if (rec == 0) qoe_no_recovery += out.score.qoe;
      if (rec == 2) qoe_retry_drop_early += out.score.qoe;
      csv.row({"ablation", util::CsvWriter::cell(0.05), schedulers[s],
               "deadline-aware", recoveries[rec].name,
               util::CsvWriter::cell(out.score.qoe),
               util::CsvWriter::cell(out.score.overall),
               util::CsvWriter::cell(out.score.total_energy_mj),
               util::CsvWriter::cell(out.score.frame_drop_rate)});
    }
    row.push_back(util::fmt_double(last_mj, 1));
    ablation.add_row(row);
  }
  ablation.print(std::cout);
  const auto n = static_cast<double>(schedulers.size());
  std::cout << "\nMean QoE across schedulers: no-recovery "
            << util::fmt_double(qoe_no_recovery / n) << ", retry+drop-early "
            << util::fmt_double(qoe_retry_drop_early / n) << "\n";
  std::cout << "Per-point scores are in bench_output/fault_resilience.csv\n";

  std::cout << "\n=== Recovery ladder at 5% transient rate (M @ 4K PEs, "
               "fault domains {0,1} {2,3}, identical fault schedule) ===\n\n";
  util::TablePrinter ladder_table({"Recovery", "QoE", "overall", "energy_mJ",
                                   "drop", "resumes", "saved_ms"});
  for (std::size_t l = 0; l < ladder.size(); ++l) {
    const auto& out = outcomes[section_b_end + l];
    const auto& res = out.last.resilience;
    ladder_table.add_row({ladder[l].name, util::fmt_double(out.score.qoe),
                          util::fmt_double(out.score.overall),
                          util::fmt_double(out.score.total_energy_mj, 1),
                          util::fmt_percent(out.score.frame_drop_rate),
                          util::CsvWriter::cell(res.resumes),
                          util::fmt_double(res.checkpoint_saved_ms, 2)});
    csv.row({"ladder", util::CsvWriter::cell(0.05), ladder[l].sched,
             "deadline-aware", ladder[l].name,
             util::CsvWriter::cell(out.score.qoe),
             util::CsvWriter::cell(out.score.overall),
             util::CsvWriter::cell(out.score.total_energy_mj),
             util::CsvWriter::cell(out.score.frame_drop_rate)});
  }
  ladder_table.print(std::cout);

  return 0;
}
