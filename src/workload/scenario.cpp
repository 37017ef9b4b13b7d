#include "workload/scenario.h"

#include <stdexcept>

namespace xrbench::workload {

using models::TaskId;

const char* dependency_type_name(DependencyType t) {
  switch (t) {
    case DependencyType::kNone: return "none";
    case DependencyType::kData: return "data";
    case DependencyType::kControl: return "control";
  }
  return "?";
}

const ScenarioModel* UsageScenario::find(TaskId task) const {
  for (const auto& m : models) {
    if (m.task == task) return &m;
  }
  return nullptr;
}

namespace {

ScenarioModel independent(TaskId task, double fps) {
  return ScenarioModel{task, fps, std::nullopt, DependencyType::kNone, 1.0};
}

ScenarioModel data_dep(TaskId task, double fps, TaskId upstream,
                       double p = 1.0) {
  return ScenarioModel{task, fps, upstream, DependencyType::kData, p};
}

ScenarioModel control_dep(TaskId task, double fps, TaskId upstream, double p) {
  return ScenarioModel{task, fps, upstream, DependencyType::kControl, p};
}

std::vector<UsageScenario> build_suite() {
  std::vector<UsageScenario> suite;

  // Social Interaction A — AR messaging with AR object rendering.
  // HT 30, ES->GE 60/60, DR 30 (matches the Figure-3 deep-dive).
  suite.push_back(UsageScenario{
      "Social Interaction A",
      "AR messaging with AR object rendering",
      {independent(TaskId::kHT, 30), independent(TaskId::kES, 60),
       data_dep(TaskId::kGE, 60, TaskId::kES),
       independent(TaskId::kDR, 30)}});

  // Social Interaction B — in-person interaction with AR glasses.
  // Eye pipeline 60/60 + DR 30 (no hand tracking).
  suite.push_back(UsageScenario{
      "Social Interaction B",
      "In-person interaction with AR glasses",
      {independent(TaskId::kES, 60), data_dep(TaskId::kGE, 60, TaskId::kES),
       independent(TaskId::kDR, 30)}});

  // Outdoor Activity A — hiking with smart photo capture.
  // Speech pipeline 3/3 (keyword-gated, p=0.2 per §4.1), OD 10, AS 30.
  suite.push_back(UsageScenario{
      "Outdoor Activity A",
      "Hiking with smart photo capture",
      {independent(TaskId::kKD, 3),
       control_dep(TaskId::kSR, 3, TaskId::kKD, 0.2),
       independent(TaskId::kOD, 10), independent(TaskId::kAS, 30)}});

  // Outdoor Activity B — rest during hike: hand tracking engages for device
  // interaction (§3.3), speech pipeline stays armed (p=0.2).
  suite.push_back(UsageScenario{
      "Outdoor Activity B",
      "Rest during hike",
      {independent(TaskId::kHT, 30), independent(TaskId::kKD, 3),
       control_dep(TaskId::kSR, 3, TaskId::kKD, 0.2)}});

  // AR Assistant — urban walk with informative AR objects. The most
  // populated scenario (6 models): speech 3/3 (p=0.5 per §4.1),
  // SS 10, OD 10, DE 30, PD 30.
  suite.push_back(UsageScenario{
      "AR Assistant",
      "Urban walk with informative AR objects",
      {independent(TaskId::kKD, 3),
       control_dep(TaskId::kSR, 3, TaskId::kKD, 0.5),
       independent(TaskId::kSS, 10), independent(TaskId::kOD, 10),
       independent(TaskId::kDE, 30), independent(TaskId::kPD, 30)}});

  // AR Gaming — gaming with AR object: HT 45, DE 30, PD 30 (the Figure-6
  // timeline shows exactly these three models).
  suite.push_back(UsageScenario{
      "AR Gaming",
      "Gaming with AR object",
      {independent(TaskId::kHT, 45), independent(TaskId::kDE, 30),
       independent(TaskId::kPD, 30)}});

  // VR Gaming — highly-interactive immersive VR gaming: HT 45, ES->GE 60/60.
  // The fewest-model scenario (3).
  suite.push_back(UsageScenario{
      "VR Gaming",
      "Highly-interactive immersive VR gaming",
      {independent(TaskId::kHT, 45), independent(TaskId::kES, 60),
       data_dep(TaskId::kGE, 60, TaskId::kES)}});

  return suite;
}

std::vector<UsageScenario> build_extensions() {
  std::vector<UsageScenario> extra;

  // Low-Power Wearable — always-on assistant glasses between interactions:
  // slow keyword spotting, gesture tracking at half rate, ambient activity
  // recognition. Every model has generous slack relative to its cost, which
  // is exactly where a DVFS governor can trade frequency for energy.
  extra.push_back(UsageScenario{
      "Low-Power Wearable",
      "Always-on assistant glasses idling between interactions",
      {independent(TaskId::kKD, 3),
       control_dep(TaskId::kSR, 3, TaskId::kKD, 0.25),
       independent(TaskId::kHT, 15), independent(TaskId::kAS, 30)}});

  // Bursty Notification — incoming-message bursts on AR glasses: the
  // keyword-gated speech cascade fires often (p=0.8), and the eye pipeline
  // wakes at half rate to drive notification gaze interaction.
  extra.push_back(UsageScenario{
      "Bursty Notification",
      "Incoming-notification bursts with gaze-driven interaction",
      {independent(TaskId::kKD, 3),
       control_dep(TaskId::kSR, 3, TaskId::kKD, 0.8),
       independent(TaskId::kES, 30), data_dep(TaskId::kGE, 30, TaskId::kES),
       independent(TaskId::kHT, 30)}});

  return extra;
}

}  // namespace

const std::vector<UsageScenario>& benchmark_suite() {
  static const std::vector<UsageScenario> suite = build_suite();
  return suite;
}

const std::vector<UsageScenario>& extension_scenarios() {
  static const std::vector<UsageScenario> extra = build_extensions();
  return extra;
}

const UsageScenario& scenario_by_name(const std::string& name) {
  for (const auto& s : benchmark_suite()) {
    if (s.name == name) return s;
  }
  for (const auto& s : extension_scenarios()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("scenario_by_name: unknown scenario '" + name +
                              "'");
}

void validate_dependency_rate(const UsageScenario& scenario,
                              const ScenarioModel& m) {
  if (!m.depends_on || m.dependency != DependencyType::kData) return;
  const ScenarioModel* up = scenario.find(*m.depends_on);
  if (up != nullptr && up->target_fps != m.target_fps) {
    throw std::invalid_argument(
        "data-dependent model " + std::string(models::task_code(m.task)) +
        " targets " + std::to_string(m.target_fps) +
        " FPS but its upstream " + models::task_code(up->task) +
        " runs at " + std::to_string(up->target_fps) + " FPS");
  }
}

void validate_dependency_rates(const UsageScenario& scenario) {
  for (const auto& m : scenario.models) validate_dependency_rate(scenario, m);
}

bool is_dynamic_scenario(const UsageScenario& scenario) {
  for (const auto& m : scenario.models) {
    if (m.dependency == DependencyType::kControl &&
        m.trigger_probability < 1.0) {
      return true;
    }
  }
  return false;
}

UsageScenario with_cascade_probability(const UsageScenario& scenario,
                                       TaskId downstream, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(
        "with_cascade_probability: p must be in [0,1]");
  }
  UsageScenario copy = scenario;
  bool found = false;
  for (auto& m : copy.models) {
    if (m.task == downstream && m.depends_on.has_value()) {
      m.trigger_probability = p;
      // Sweeping a data dependency's probability turns it into a dynamic
      // control-flow edge (the Figure-7 ES->GE experiment).
      m.dependency = DependencyType::kControl;
      found = true;
    }
  }
  if (!found) {
    throw std::invalid_argument(
        "with_cascade_probability: task has no dependency in scenario");
  }
  return copy;
}

}  // namespace xrbench::workload
