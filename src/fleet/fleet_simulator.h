#pragma once

#include <cstddef>

#include "core/harness.h"
#include "core/sweep.h"
#include "fleet/fleet_config.h"
#include "fleet/fleet_result.h"
#include "fleet/fleet_workload.h"
#include "hw/accelerator.h"

namespace xrbench::fleet {

/// Fleet-scale serving simulation: many concurrent user sessions over a
/// shared pool of accelerator instances, sessions-as-trials.
///
/// A fleet run has two stages, both deterministic in the fleet seed:
///
///  1. Schedule. FleetWorkload::generate draws the session population; a
///     priority admission queue then assigns every session its fate. The
///     pool is `pool_size` identical instances; a session's service time is
///     its program's total duration, known at arrival, so the queue is an
///     exact serial simulation (no heavy trial work): arrivals start
///     immediately when an instance is free, otherwise they join a backlog
///     ordered by (class, arrival, id) — a higher class preempts the queue
///     POSITION of lower classes, never a running session — and instances
///     release the backlog head as they free (staged release). The
///     configured admission policy (PolicyRegistry family) is consulted
///     once per session at arrival with its predicted start time;
///     "fleet-queue" rejects sessions whose predicted wait blows their
///     class budget, "admit-all" queues unboundedly.
///
///  2. Execution. Every admitted session becomes ONE SweepEngine program
///     trial (seed = fleet_seed XOR golden-stride(session_id)) bound to its
///     pool instance, run through run_program_points as one index range
///     over the engine's worker threads — all instances are copies of one
///     design, so the range opens with the fleet's single CostTable build
///     and every session trial follows it. Results merge in session-id
///     order: serial and parallel fleet runs are byte-identical at any
///     worker count (test-enforced at 0/1/2/4/8).
///
/// A single-session fleet under admit-all is bit-identical to the
/// equivalent standalone run_program trial (the compatibility anchor).
/// Results keep each session's scores, latency and resilience counters; a
/// caller that needs a session's run re-runs its session_point.
class FleetSimulator {
 public:
  /// Worker count from XRBENCH_THREADS / hardware concurrency.
  FleetSimulator() = default;
  /// Explicit worker count; 0 runs every trial inline (serial baseline).
  explicit FleetSimulator(std::size_t num_threads) : engine_(num_threads) {}

  FleetSimulator(const FleetSimulator&) = delete;
  FleetSimulator& operator=(const FleetSimulator&) = delete;

  std::size_t num_threads() const { return engine_.num_threads(); }

  /// Runs the fleet described by `config` on a pool of `system` copies.
  /// `base` carries the per-session harness options (scoring constants,
  /// in-run policies, fault profile); config.scheduler/governor override
  /// its policy names when set, and a program's own names win over both.
  /// dynamic_trials is ignored — a session is exactly one trial.
  FleetResult run(const FleetConfig& config,
                  const hw::AcceleratorSystem& system,
                  const core::HarnessOptions& base = {});

  /// Same, with an explicit program catalog in popularity-rank order (the
  /// fleet_io path: inline program definitions never reach the registry, so
  /// config.programs alone cannot resolve them).
  FleetResult run(const FleetConfig& config,
                  const std::vector<workload::ScenarioProgram>& catalog,
                  const hw::AcceleratorSystem& system,
                  const core::HarnessOptions& base = {});

 private:
  core::SweepEngine engine_;
};

/// The program point admitted session `spec` runs as: a copy of `system`,
/// `base` at the session's seed with one trial and with config.scheduler
/// and config.governor over its policy names when set, and the session's
/// catalog program. Harness(point.system, point.options)
/// .run_program_once(point.program, spec.seed) re-runs the session bit for
/// bit.
core::ProgramSweepPoint session_point(
    const FleetConfig& config,
    const std::vector<workload::ScenarioProgram>& catalog,
    const hw::AcceleratorSystem& system, const core::HarnessOptions& base,
    const SessionSpec& spec);

}  // namespace xrbench::fleet
