#include "core/report.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"

namespace xrbench::core {

using util::fmt_double;
using util::fmt_percent;
using util::TablePrinter;

namespace {

/// Executed-inference latency percentiles of one model's record store,
/// streamed straight off the SoA columns. Report-time only: percentile
/// extraction costs a sort, which has no business inside the per-trial
/// scoring loop of a sweep.
std::pair<double, double> latency_p50_p99(const runtime::RecordStore& recs) {
  util::Percentiles latency;
  latency.reserve(recs.size());
  const auto* dropped = recs.dropped();
  const auto* treq = recs.treq_ms();
  const auto* complete = recs.complete_ms();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (dropped[i] == 0) latency.add(complete[i] - treq[i]);
  }
  latency.seal();
  return {latency.percentile(50.0), latency.percentile(99.0)};
}

}  // namespace

void print_benchmark_report(std::ostream& os,
                            const SuitePointScore& outcome) {
  os << "XRBench report — accelerator " << outcome.accelerator_id << " ("
     << outcome.total_pes << " PEs)\n";
  TablePrinter table({"Usage Scenario", "Realtime", "Energy", "QoE",
                      "Overall", "Drop rate", "Energy (mJ)"});
  for (const auto& sc : outcome.score.scenarios) {
    table.add_row({sc.scenario_name, fmt_double(sc.realtime),
                   fmt_double(sc.energy), fmt_double(sc.qoe),
                   fmt_double(sc.overall), fmt_percent(sc.frame_drop_rate),
                   fmt_double(sc.total_energy_mj, 1)});
  }
  table.add_row({"XRBench SCORE (avg)", fmt_double(outcome.score.realtime),
                 fmt_double(outcome.score.energy),
                 fmt_double(outcome.score.qoe),
                 fmt_double(outcome.score.overall), "-", "-"});
  table.print(os);
  // One line per scenario that actually saw faults or early drops; suites
  // run fault-free print nothing extra (byte-identity with older output).
  for (std::size_t s = 0; s < outcome.last.size(); ++s) {
    const auto& res = outcome.last[s].resilience;
    if (!res.enabled) continue;
    os << "  resilience [" << outcome.score.scenarios[s].scenario_name
       << "]: faults "
       << res.transient_faults << ", retries " << res.retries
       << ", failovers " << res.failovers << ", drops early/late "
       << res.drops_early << "/" << res.drops_late;
    // Checkpoint counters only when checkpointing actually resumed work,
    // keeping checkpoint-free fault runs byte-stable.
    if (res.resumes > 0) {
      os << ", resumes " << res.resumes << " (saved "
         << fmt_double(res.checkpoint_saved_ms, 2) << " ms)";
    }
    os << "\n";
  }
}

void print_scenario_report(std::ostream& os, const ScenarioScore& sc,
                           int trials,
                           const runtime::ScenarioRunResult& final_trial) {
  os << "Scenario: " << sc.scenario_name << "  (trials: " << trials << ")\n";
  TablePrinter table({"Model", "FPS ok/total", "Drops", "Late", "Rt", "En",
                      "Acc", "QoE", "Model x QoE", "p50 ms", "p99 ms"});
  for (const auto& m : sc.models) {
    // Tail latencies come from the final trial's raw records (the scores
    // above are trial averages; the percentiles are a last-run diagnostic).
    double p50 = 0.0, p99 = 0.0;
    if (const auto* stats = final_trial.find(m.task)) {
      std::tie(p50, p99) = latency_p50_p99(stats->records);
    }
    table.add_row({models::task_code(m.task),
                   std::to_string(m.frames_executed) + "/" +
                       std::to_string(m.frames_expected),
                   std::to_string(m.frames_dropped),
                   std::to_string(m.deadline_misses), fmt_double(m.rt),
                   fmt_double(m.energy), fmt_double(m.accuracy),
                   fmt_double(m.qoe), fmt_double(m.combined),
                   fmt_double(p50, 2), fmt_double(p99, 2)});
  }
  table.print(os);
  os << "Scenario score: " << fmt_double(sc.overall)
     << "  (Rt " << fmt_double(sc.realtime) << ", En " << fmt_double(sc.energy)
     << ", QoE " << fmt_double(sc.qoe) << ")\n";
  // Resilience section (final trial's counters). Gated on `enabled` —
  // fault-free, admit-all runs print exactly what they always did.
  const auto& res = final_trial.resilience;
  if (res.enabled) {
    os << "Resilience (last trial): faults " << res.transient_faults
       << ", retries " << res.retries << " (give-ups " << res.retry_give_ups
       << "), outage kills " << res.outage_kills << ", failovers "
       << res.failovers << ", throttle clamps " << res.throttle_clamps
       << ", drops early/late " << res.drops_early << "/" << res.drops_late;
    if (res.resumes > 0) {
      os << ", resumes " << res.resumes << " (saved "
         << fmt_double(res.checkpoint_saved_ms, 2) << " ms)";
    }
    os << "\n";
  }
}

void print_timeline(std::ostream& os, const runtime::ScenarioRunResult& run,
                    double until_ms, double resolution_ms) {
  const std::size_t lanes = run.telemetry.num_sub_accels();
  const auto slices =
      static_cast<std::size_t>(std::max(1.0, until_ms / resolution_ms));
  std::vector<std::string> rows(lanes, std::string(slices, '.'));
  for (const auto& bi : run.timeline()) {
    if (bi.sub_accel < 0 || static_cast<std::size_t>(bi.sub_accel) >= lanes) {
      continue;
    }
    const auto from = static_cast<std::size_t>(
        std::clamp(bi.start_ms / resolution_ms, 0.0,
                   static_cast<double>(slices)));
    const auto to = static_cast<std::size_t>(std::clamp(
        bi.end_ms / resolution_ms + 1.0, 0.0, static_cast<double>(slices)));
    const char glyph = models::task_code(bi.task)[0];
    for (std::size_t s = from; s < to && s < slices; ++s) {
      rows[static_cast<std::size_t>(bi.sub_accel)][s] = glyph;
    }
  }
  os << "Execution timeline (" << run.scenario_name << ", 1 char = "
     << resolution_ms << " ms, letter = first char of task code)\n";
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    os << "  sub-accel " << lane << " |" << rows[lane] << "|\n";
  }
}

void print_energy_breakdown(std::ostream& os,
                            const runtime::ScenarioRunResult& run) {
  const runtime::Telemetry& tel = run.telemetry;
  os << "Energy breakdown (" << run.scenario_name
     << ", accelerator terms from runtime telemetry)\n";
  TablePrinter table({"Sub-accel", "Busy ms", "Idle ms", "Util", "Dynamic mJ",
                      "Static mJ", "Idle mJ", "Total mJ"});
  double accel_total = 0.0;
  for (std::size_t sa = 0; sa < tel.num_sub_accels(); ++sa) {
    const auto& sub = tel.sub_accel(sa);
    const double total = sub.dynamic_mj + sub.static_mj + sub.idle_mj;
    accel_total += total;
    table.add_row({std::to_string(sa), fmt_double(sub.busy_ms, 1),
                   fmt_double(sub.idle_ms, 1),
                   fmt_percent(sub.utilization()),
                   fmt_double(sub.dynamic_mj, 2), fmt_double(sub.static_mj, 2),
                   fmt_double(sub.idle_mj, 2), fmt_double(total, 2)});
  }
  table.print(os);
  os << "Accelerator energy: " << fmt_double(accel_total, 2)
     << " mJ; run total (incl. device baseline): "
     << fmt_double(run.total_energy_mj, 2) << " mJ\n";
}

void write_energy_breakdown_csv(const std::filesystem::path& path,
                                const runtime::ScenarioRunResult& run) {
  util::CsvWriter csv(path);
  csv.header({"sub_accel", "busy_ms", "idle_ms", "utilization", "util_ewma",
              "dispatches", "dynamic_mj", "static_mj", "idle_mj", "total_mj"});
  const runtime::Telemetry& tel = run.telemetry;
  for (std::size_t sa = 0; sa < tel.num_sub_accels(); ++sa) {
    const auto& sub = tel.sub_accel(sa);
    csv.row({util::CsvWriter::cell(static_cast<std::int64_t>(sa)),
             util::CsvWriter::cell(sub.busy_ms),
             util::CsvWriter::cell(sub.idle_ms),
             util::CsvWriter::cell(sub.utilization()),
             util::CsvWriter::cell(sub.util_ewma),
             util::CsvWriter::cell(sub.dispatches),
             util::CsvWriter::cell(sub.dynamic_mj),
             util::CsvWriter::cell(sub.static_mj),
             util::CsvWriter::cell(sub.idle_mj),
             util::CsvWriter::cell(sub.dynamic_mj + sub.static_mj +
                                   sub.idle_mj)});
  }
}

void write_inference_log_csv(const std::filesystem::path& path,
                             const runtime::ScenarioRunResult& run) {
  util::CsvWriter csv(path);
  csv.header({"task", "frame", "treq_ms", "deadline_ms", "dispatch_ms",
              "complete_ms", "latency_ms", "energy_mj", "sub_accel",
              "dropped", "missed_deadline"});
  for (const auto& m : run.per_model) {
    // Stream the store's columns; the per-record AoS materialization is for
    // spot reads, not row-by-row export.
    const auto& recs = m.records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const bool dropped = recs.dropped()[i] != 0;
      csv.row({models::task_code(recs.task()[i]),
               util::CsvWriter::cell(recs.frame()[i]),
               util::CsvWriter::cell(recs.treq_ms()[i]),
               util::CsvWriter::cell(recs.tdl_ms()[i]),
               util::CsvWriter::cell(dropped ? 0.0 : recs.dispatch_ms()[i]),
               util::CsvWriter::cell(dropped ? 0.0 : recs.complete_ms()[i]),
               util::CsvWriter::cell(dropped ? 0.0 : recs.latency_ms(i)),
               util::CsvWriter::cell(recs.energy_mj()[i]),
               util::CsvWriter::cell(recs.sub_accel()[i]),
               dropped ? "1" : "0", recs.missed_deadline(i) ? "1" : "0"});
    }
  }
}

void write_scores_csv(const std::filesystem::path& path,
                      const SuitePointScore& outcome) {
  util::CsvWriter csv(path);
  csv.header({"accelerator", "total_pes", "scenario", "realtime", "energy",
              "qoe", "overall", "drop_rate", "energy_mj"});
  for (const auto& sc : outcome.score.scenarios) {
    csv.row({outcome.accelerator_id, util::CsvWriter::cell(outcome.total_pes),
             sc.scenario_name, util::CsvWriter::cell(sc.realtime),
             util::CsvWriter::cell(sc.energy), util::CsvWriter::cell(sc.qoe),
             util::CsvWriter::cell(sc.overall),
             util::CsvWriter::cell(sc.frame_drop_rate),
             util::CsvWriter::cell(sc.total_energy_mj)});
  }
  csv.row({outcome.accelerator_id, util::CsvWriter::cell(outcome.total_pes),
           "AVERAGE", util::CsvWriter::cell(outcome.score.realtime),
           util::CsvWriter::cell(outcome.score.energy),
           util::CsvWriter::cell(outcome.score.qoe),
           util::CsvWriter::cell(outcome.score.overall), "", ""});
}

}  // namespace xrbench::core
