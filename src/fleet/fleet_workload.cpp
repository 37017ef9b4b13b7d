#include "fleet/fleet_workload.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"
#include "util/zipf.h"

namespace xrbench::fleet {

void validate_fleet_config(const FleetConfig& config) {
  if (!std::isfinite(config.arrival_rate_per_s) ||
      config.arrival_rate_per_s <= 0.0) {
    throw std::invalid_argument(
        "fleet config: arrival_rate_per_s must be finite and > 0");
  }
  if (!std::isfinite(config.zipf_s) || config.zipf_s < 0.0) {
    throw std::invalid_argument(
        "fleet config: zipf_s must be finite and >= 0");
  }
  if (config.pool_size == 0 || config.pool_size > kMaxFleetSessions) {
    throw std::invalid_argument("fleet config: pool_size must be in [1, " +
                                std::to_string(kMaxFleetSessions) + "]");
  }
  if (!std::isfinite(config.arrival_window_ms) ||
      config.arrival_window_ms <= 0.0) {
    throw std::invalid_argument(
        "fleet config: arrival_window_ms must be finite and > 0");
  }
  if (config.max_sessions == 0 || config.max_sessions > kMaxFleetSessions) {
    throw std::invalid_argument("fleet config: max_sessions must be in [1, " +
                                std::to_string(kMaxFleetSessions) + "]");
  }
  double weight_sum = 0.0;
  for (const auto& cls : config.classes) {
    if (cls.weight <= 0.0) {
      throw std::invalid_argument("fleet config: class weight must be > 0");
    }
    if (!std::isfinite(cls.wait_budget_ms) || cls.wait_budget_ms < 0.0) {
      throw std::invalid_argument(
          "fleet config: class wait_budget_ms must be finite and >= 0");
    }
    weight_sum += cls.weight;
  }
  // A NaN or infinite weight, or finite weights whose sum overflows, would
  // leave the class draw nothing to split.
  if (!std::isfinite(weight_sum)) {
    throw std::invalid_argument(
        "fleet config: class weights must sum to a finite value");
  }
}

std::vector<workload::ScenarioProgram> resolve_catalog(
    const FleetConfig& config) {
  std::vector<workload::ScenarioProgram> catalog;
  if (config.programs.empty()) {
    catalog = workload::extension_programs();
  } else {
    catalog.reserve(config.programs.size());
    for (const auto& name : config.programs) {
      catalog.push_back(workload::program_by_name(name));
    }
  }
  if (catalog.empty()) {
    throw std::invalid_argument("fleet config: empty program catalog");
  }
  for (const auto& program : catalog) {
    if (program.total_duration_ms() <= 0.0) {
      throw std::invalid_argument("fleet config: program '" + program.name +
                                  "' has no duration");
    }
  }
  return catalog;
}

std::vector<SessionSpec> FleetWorkload::generate(
    const FleetConfig& config,
    const std::vector<workload::ScenarioProgram>& catalog) {
  validate_fleet_config(config);
  if (catalog.empty()) {
    throw std::invalid_argument("FleetWorkload: empty program catalog");
  }

  const util::ZipfSampler popularity(catalog.size(), config.zipf_s);

  // Class weights, cumulative; an empty class list is one default class.
  std::vector<double> cum_weight;
  double total_weight = 0.0;
  if (config.classes.empty()) {
    cum_weight.push_back(total_weight = 1.0);
  } else {
    for (const auto& cls : config.classes) {
      total_weight += cls.weight;
      cum_weight.push_back(total_weight);
    }
  }

  // One stream, three draws per session in fixed order (gap, rank, class);
  // see the header's determinism contract.
  util::Rng rng(config.seed);
  const double rate_per_ms = config.arrival_rate_per_s / 1000.0;
  std::vector<SessionSpec> sessions;
  double t = 0.0;
  while (sessions.size() < config.max_sessions) {
    t += rng.exponential(rate_per_ms);
    const std::size_t rank = popularity.sample(rng);
    const double cu = rng.uniform() * total_weight;
    if (t >= config.arrival_window_ms) break;
    std::size_t cls = 0;
    while (cls + 1 < cum_weight.size() && cu >= cum_weight[cls]) ++cls;

    SessionSpec spec;
    spec.session_id = static_cast<std::uint64_t>(sessions.size());
    spec.arrival_ms = t;
    spec.program_rank = rank;
    spec.priority_class = cls;
    spec.duration_ms = catalog[rank].total_duration_ms();
    spec.seed = session_seed(config.seed, spec.session_id);
    sessions.push_back(spec);
  }
  return sessions;
}

}  // namespace xrbench::fleet
