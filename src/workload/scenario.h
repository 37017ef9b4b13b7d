#pragma once

#include <optional>
#include <string>
#include <vector>

#include "models/task.h"
#include "workload/unit_model.h"

namespace xrbench::workload {

/// Cross-model dependency kind (paper Table 2): the eye pipeline has a data
/// dependency (GE consumes ES output), the speech pipeline a control
/// dependency (SR is launched only when KD detects a keyword).
enum class DependencyType { kNone, kData, kControl };

const char* dependency_type_name(DependencyType t);

/// One active model inside a usage scenario (Definition 4 element).
struct ScenarioModel {
  models::TaskId task = models::TaskId::kHT;
  double target_fps = 30.0;  ///< FPS_model: target processing rate.
  /// Upstream model this one depends on (Dep_mu), if any.
  std::optional<models::TaskId> depends_on;
  DependencyType dependency = DependencyType::kNone;
  /// Probability that an upstream completion triggers this model
  /// (1.0 for pure data dependencies; the paper's §4.1 cascading
  /// probabilities for control dependencies: 0.2 outdoor, 0.5 AR assistant).
  double trigger_probability = 1.0;
};

/// A usage scenario (Definition 4: theta).
struct UsageScenario {
  std::string name;
  std::string description;  ///< Table-2 "Example Usage Scenario Description".
  std::vector<ScenarioModel> models;

  /// Returns the entry for `task`, or nullptr when the model is inactive
  /// (deactivated, 0 FPS) in this scenario.
  const ScenarioModel* find(models::TaskId task) const;

  /// Number of active models, |theta|.
  std::size_t num_models() const { return models.size(); }
};

/// The seven Table-2 usage scenarios, in paper order:
/// Social Interaction A/B, Outdoor Activity A/B, AR Assistant, AR Gaming,
/// VR Gaming. See DESIGN.md for the column-assignment notes on the rows the
/// PDF table flattens ambiguously.
const std::vector<UsageScenario>& benchmark_suite();

/// Extension scenarios beyond Table 2 (not part of the scored suite):
/// "Low-Power Wearable" (an always-on, high-slack profile that stresses
/// DVFS down-clocking) and "Bursty Notification" (a keyword-gated burst
/// profile whose load swings between idle and a dependent cascade).
const std::vector<UsageScenario>& extension_scenarios();

/// Looks a scenario up by name (exact match) across the Table-2 suite and
/// the extension scenarios. Throws on unknown name.
const UsageScenario& scenario_by_name(const std::string& name);

/// True when any model in the scenario has a control dependency with
/// trigger probability < 1 (i.e. the workload is stochastic and benches
/// should average multiple trials — paper §4.1 / appendix D.6).
bool is_dynamic_scenario(const UsageScenario& scenario);

/// Throws std::invalid_argument when `model`, one of `scenario`'s models,
/// is data-dependent and its target_fps differs from its (active)
/// upstream's rate. Such a model is requested once per upstream completion
/// but scores its QoE against its own target rate, so a mismatch silently
/// skews QoE. An absent upstream is not an error here (the runner
/// tolerates it — the model is simply never triggered).
void validate_dependency_rate(const UsageScenario& scenario,
                              const ScenarioModel& model);

/// validate_dependency_rate for every model: the runner's preflight check.
/// The scenario parser checks each model on its own, to name its line.
void validate_dependency_rates(const UsageScenario& scenario);

/// Returns a copy of `scenario` with every data/control trigger probability
/// on the ES->GE edge replaced by `p` (the Figure-7 cascade sweep).
UsageScenario with_cascade_probability(const UsageScenario& scenario,
                                       models::TaskId downstream, double p);

}  // namespace xrbench::workload
