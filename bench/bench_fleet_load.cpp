// Fleet serving study: drop rate, tail QoE and per-session energy of the
// fleet simulator swept over offered load (session arrival rate), pool size
// and admission policy. All cells share one fleet seed and the session
// generator draws a fixed number of variates per session, so raising the
// arrival rate only compresses the SAME session population in time —
// drop-rate curves are monotone in load by construction, not by luck.
//
// Every session executes as one SweepEngine trial, so serial
// (XRBENCH_THREADS=0) and parallel runs produce byte-identical reports
// (CI diffs 1 vs 4 workers).

#include <iostream>
#include <string>
#include <vector>

#include "fleet/fleet_report.h"
#include "fleet/fleet_simulator.h"
#include "hw/accelerator.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  util::CsvWriter csv("bench_output/fleet_load.csv");
  csv.header({"admission", "pool_size", "arrival_rate_per_s", "offered_load",
              "offered", "admitted", "drop_rate", "qoe_p50", "qoe_p99",
              "mean_qoe", "latency_p99_ms", "wait_p99_ms",
              "energy_per_session_mj"});

  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const std::vector<double> rates = {2.0, 6.0, 12.0};
  const std::vector<std::size_t> pools = {1, 2, 4};
  const std::vector<std::string> admissions = {"admit-all", "fleet-queue"};

  fleet::FleetConfig base;
  base.seed = 42;
  base.zipf_s = 1.0;
  base.arrival_window_ms = 2000.0;
  base.classes = {{1.0, 150.0}, {3.0, 600.0}};

  fleet::FleetSimulator sim;

  for (const auto& admission : admissions) {
    std::cout << "=== Admission '" << admission
              << "' (J @ 4K PEs, 2 s arrival window, Zipf s=1) ===\n\n";
    util::TablePrinter table({"pool", "rate/s", "load_erl", "drop", "qoe_p50",
                              "qoe_p99", "lat_p99_ms", "mj/session"});
    for (std::size_t pool : pools) {
      for (double rate : rates) {
        fleet::FleetConfig config = base;
        config.admission = admission;
        config.pool_size = pool;
        config.arrival_rate_per_s = rate;
        const auto result = sim.run(config, system);
        const auto& fs = result.fleet;
        table.add_row({util::CsvWriter::cell(pool),
                       util::fmt_double(rate, 0),
                       util::fmt_double(result.offered_load, 2),
                       util::fmt_percent(fs.drop_rate),
                       util::fmt_double(fs.qoe_p50),
                       util::fmt_double(fs.qoe_p99),
                       util::fmt_double(fs.latency_p99_ms, 1),
                       util::fmt_double(fs.energy_per_session_mj, 1)});
        csv.row({admission, util::CsvWriter::cell(pool),
                 util::CsvWriter::cell(rate),
                 util::CsvWriter::cell(result.offered_load),
                 util::CsvWriter::cell(fs.offered),
                 util::CsvWriter::cell(fs.admitted),
                 util::CsvWriter::cell(fs.drop_rate),
                 util::CsvWriter::cell(fs.qoe_p50),
                 util::CsvWriter::cell(fs.qoe_p99),
                 util::CsvWriter::cell(fs.mean_qoe),
                 util::CsvWriter::cell(fs.latency_p99_ms),
                 util::CsvWriter::cell(fs.wait_p99_ms),
                 util::CsvWriter::cell(fs.energy_per_session_mj)});
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // Per-class service contrast at the overload corner under fleet-queue:
  // class 0 outranks the queue, so its tail QoE should hold up.
  fleet::FleetConfig overload = base;
  overload.admission = "fleet-queue";
  overload.pool_size = pools.front();
  overload.arrival_rate_per_s = rates.back();
  const auto contrast = sim.run(overload, system);
  std::cout << "=== Per-class service at the overload corner (pool "
            << overload.pool_size << ", "
            << util::fmt_double(overload.arrival_rate_per_s, 0)
            << "/s, fleet-queue) ===\n\n";
  fleet::print_fleet_report(std::cout, contrast);
  std::cout << "\nPer-cell metrics are in bench_output/fleet_load.csv\n";

  return 0;
}
