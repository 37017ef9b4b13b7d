#pragma once

#include <cstdint>
#include <vector>

#include "core/aggregate.h"
#include "fleet/fleet_config.h"
#include "fleet/session.h"
#include "runtime/scenario_runner.h"

namespace xrbench::fleet {

/// Outcome of one session: its admission/queueing fate plus (when admitted)
/// the score of its trial run.
struct SessionOutcome {
  SessionSpec spec;
  bool admitted = false;
  double start_ms = 0.0;     ///< Trial start on its instance (0 if rejected).
  double wait_ms = 0.0;      ///< start - arrival (0 if rejected).
  std::size_t instance = 0;  ///< Pool instance the session ran on.
  /// Score of the session's trial run (zeroed when rejected).
  core::ScenarioScore score;
  /// Wait-discounted session QoE: the run's QoE scaled by the share of the
  /// user's intended window actually served, duration / (wait + duration).
  /// Frames the user expected while queued are frames nobody served. 0 for
  /// rejected sessions.
  double session_qoe = 0.0;
  double energy_mj = 0.0;  ///< Trial total energy (0 if rejected).
  /// Session response latency: queue wait + mean executed-inference latency
  /// of the trial. Undefined (0) for rejected sessions — they are excluded
  /// from latency percentiles but counted as drops.
  double latency_ms = 0.0;
  /// Fault-injection counters of the session's trial run (enabled = false
  /// and all-zero for rejected sessions and fault-free fleets).
  runtime::ResilienceStats resilience;
};

/// Cross-session service-quality summary (fleet-wide or per class).
///
/// Percentile convention: latencies and waits use the usual high tail
/// (p99 = 99th percentile, the value 99% of sessions stay UNDER). QoE is
/// higher-is-better, so its p99 is the LOW tail — the QoE that 99% of
/// sessions meet or exceed (percentile 1 of the ascending distribution).
/// Rejected sessions count as QoE 0 (service denied is the worst service).
struct ServiceStats {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  double drop_rate = 0.0;  ///< rejected / offered (0 when nothing offered).
  double qoe_p50 = 0.0;
  double qoe_p99 = 0.0;  ///< Low-tail: 99% of sessions meet or exceed this.
  double mean_qoe = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  double energy_per_session_mj = 0.0;  ///< Mean over admitted sessions.
  /// Fault-injection counters merged over the covered sessions' trials
  /// (enabled stays false for fault-free fleets, gating report output).
  runtime::ResilienceStats resilience;
};

/// Complete outcome of one fleet simulation. Sessions are merged in
/// session-id (= submission) order, so serial and parallel runs are
/// byte-identical at any worker count — the fleet extends the SweepEngine
/// determinism contract unchanged.
struct FleetResult {
  FleetConfig config;  ///< The config this result was produced from.
  /// Offered load in Erlangs: arrival rate x mean offered session duration
  /// / pool size (>1 = overload).
  double offered_load = 0.0;
  std::vector<SessionOutcome> sessions;  ///< Session-id order.
  ServiceStats fleet;                    ///< All classes pooled.
  std::vector<ServiceStats> per_class;   ///< One entry per priority class.
};

}  // namespace xrbench::fleet
