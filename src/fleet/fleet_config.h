#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xrbench::fleet {

/// One priority class of the fleet workload. Classes are indexed in
/// priority order: class 0 outranks class 1 in the admission queue (a
/// queued class-0 session is released before any queued class-1 session,
/// regardless of arrival order).
struct PriorityClassSpec {
  /// Relative share of arriving sessions drawn into this class.
  double weight = 1.0;
  /// Admission wait budget: a session whose PREDICTED queue wait at arrival
  /// exceeds this is rejected by the "fleet-queue" admission policy
  /// (admit-all ignores it and queues unboundedly).
  double wait_budget_ms = 100.0;
};

/// Upper bound on FleetConfig::max_sessions and pool_size. A fleet run
/// holds every admitted session's run until it ends, about 20 KB each, so
/// the cap keeps a fleet near 2 GB; a pool larger than the session cap
/// could never be used.
inline constexpr std::size_t kMaxFleetSessions = 100'000;

/// Fleet workload + serving-pool description (the [fleet] config section).
/// One FleetConfig describes a stochastic population of user sessions —
/// Poisson arrivals, Zipf-distributed program popularity, weighted priority
/// classes — and the pool they are served by. Everything is derived
/// deterministically from `seed`: the same config replays the same session
/// schedule byte-for-byte at any worker count.
struct FleetConfig {
  std::uint64_t seed = 42;  ///< Fleet master seed (arrivals + per-session).
  /// Poisson session-arrival rate. Offered load in Erlangs is
  /// arrival_rate_per_s x mean session duration / pool_size.
  double arrival_rate_per_s = 4.0;
  /// Zipf popularity exponent over the program catalog (rank 0 = most
  /// popular). 0 = uniform popularity.
  double zipf_s = 1.0;
  /// Number of accelerator instances in the serving pool, at most
  /// kMaxFleetSessions. Every instance is a copy of the same design, so one
  /// CostTable serves the whole pool.
  std::size_t pool_size = 2;
  /// Sessions arrive in [0, arrival_window_ms); later arrivals are not
  /// generated (the fleet run ends when the last admitted session ends).
  double arrival_window_ms = 4000.0;
  /// Hard cap on generated sessions (guards runaway configs; the window
  /// normally binds first), at most kMaxFleetSessions.
  std::size_t max_sessions = 256;
  /// Fleet-level admission policy, resolved through the PolicyRegistry
  /// admission family and consulted once per session at its arrival
  /// ("admit-all" queues everything, "fleet-queue" rejects on blown wait
  /// budgets, "drop-early" is permissive without telemetry).
  std::string admission = "fleet-queue";
  /// Optional per-session policy overrides, applied to the harness options
  /// every session trial runs under ("" = keep the caller's options). A
  /// program naming its own policies still wins, as everywhere else.
  std::string scheduler;
  std::string governor;
  /// Priority classes in rank order; empty = one default class.
  std::vector<PriorityClassSpec> classes;
  /// Program catalog by popularity rank (names resolved against inline
  /// definitions first, then workload::program_by_name). Empty = the
  /// registered extension programs in registry order.
  std::vector<std::string> programs;
};

/// Throws std::invalid_argument on a malformed config: non-finite or
/// non-positive arrival rate or window, a pool size or max_sessions outside
/// [1, kMaxFleetSessions], non-finite or negative zipf_s, non-positive
/// class weight, class weights whose sum is not finite, or a non-finite or
/// negative wait budget.
void validate_fleet_config(const FleetConfig& config);

}  // namespace xrbench::fleet
