#include "runtime/policy_registry.h"

#include <stdexcept>

namespace xrbench::runtime {
namespace {

// The one implementation of register/has/make/names, shared by the three
// families. The caller of lookup/find holds family.mutex.

template <typename Family>
const typename Family::Factory* lookup(const Family& family,
                                       const std::string& name) {
  for (const auto& entry : family.entries) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

/// The factory registered under `name`; throws the unknown-name error,
/// listing the registered names, when there is none.
template <typename Family>
const typename Family::Factory& find(const Family& family,
                                     const std::string& name) {
  if (const auto* factory = lookup(family, name)) return *factory;
  std::string available;
  for (const auto& entry : family.entries) {
    if (!available.empty()) available += ", ";
    available += "'" + entry.first + "'";
  }
  throw std::invalid_argument("PolicyRegistry: unknown " +
                              std::string(family.noun) + " '" + name +
                              "' (available: " + available + ")");
}

template <typename Family>
void add(Family& family, const std::string& name,
         typename Family::Factory factory) {
  if (name.empty() || !factory) {
    throw std::invalid_argument(std::string("PolicyRegistry: ") +
                                family.kind +
                                " name and factory must be non-empty");
  }
  std::lock_guard<std::mutex> lock(family.mutex);
  if (lookup(family, name) != nullptr) {
    throw std::invalid_argument(std::string("PolicyRegistry: ") +
                                family.noun + " '" + name +
                                "' is already registered");
  }
  family.entries.emplace_back(name, std::move(factory));
}

/// Registers built-in policy P, made from `args`, under the name P reports.
template <typename P, typename Family, typename... Args>
void add_builtin(Family& family, Args... args) {
  auto make = [args...] { return std::make_unique<P>(args...); };
  add(family, make()->name(), make);
}

template <typename Family>
std::string checked(const Family& family, const std::string& name) {
  std::lock_guard<std::mutex> lock(family.mutex);
  find(family, name);
  return name;
}

template <typename Family>
auto make(const Family& family, const std::string& name) {
  std::lock_guard<std::mutex> lock(family.mutex);
  return find(family, name)();
}

template <typename Family>
std::vector<std::string> names(const Family& family) {
  std::lock_guard<std::mutex> lock(family.mutex);
  std::vector<std::string> out;
  out.reserve(family.entries.size());
  for (const auto& entry : family.entries) out.push_back(entry.first);
  return out;
}

}  // namespace

PolicyRegistry::PolicyRegistry() {
  // Built-ins in the order --list-policies and every registry-driven sweep
  // enumerate them.
  add_builtin<LatencyGreedyScheduler>(schedulers_);
  add_builtin<RoundRobinScheduler>(schedulers_);
  add_builtin<EdfScheduler>(schedulers_);
  add_builtin<SlackAwareScheduler>(schedulers_);
  add_builtin<LeastLoadedScheduler>(schedulers_);
  add_builtin<FaultAwareScheduler>(schedulers_);
  using Level = FixedLevelGovernor::Level;
  add_builtin<FixedLevelGovernor>(governors_, Level::kLowest);
  add_builtin<FixedLevelGovernor>(governors_, Level::kNominal);
  add_builtin<FixedLevelGovernor>(governors_, Level::kHighest);
  add_builtin<DeadlineAwareGovernor>(governors_);
  add_builtin<RaceToIdleGovernor>(governors_);
  add_builtin<OndemandGovernor>(governors_);
  add_builtin<UtilizationFeedbackGovernor>(governors_);
  add_builtin<AdmitAllController>(admissions_);
  add_builtin<DropEarlyController>(admissions_);
  add_builtin<FleetQueueController>(admissions_);
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::register_scheduler(const std::string& name,
                                        SchedulerFactory factory) {
  add(schedulers_, name, std::move(factory));
}

void PolicyRegistry::register_governor(const std::string& name,
                                       GovernorFactory factory) {
  add(governors_, name, std::move(factory));
}

void PolicyRegistry::register_admission(const std::string& name,
                                        AdmissionFactory factory) {
  add(admissions_, name, std::move(factory));
}

std::string PolicyRegistry::checked_scheduler(const std::string& name) {
  return checked(instance().schedulers_, name);
}

std::string PolicyRegistry::checked_governor(const std::string& name) {
  return checked(instance().governors_, name);
}

std::string PolicyRegistry::checked_admission(const std::string& name) {
  return checked(instance().admissions_, name);
}

std::unique_ptr<Scheduler> PolicyRegistry::make_scheduler(
    const std::string& name) const {
  return make(schedulers_, name);
}

std::unique_ptr<FrequencyGovernor> PolicyRegistry::make_governor(
    const std::string& name) const {
  return make(governors_, name);
}

std::unique_ptr<AdmissionController> PolicyRegistry::make_admission(
    const std::string& name) const {
  return make(admissions_, name);
}

std::unique_ptr<FrequencyGovernor> PolicyRegistry::make_governor_map(
    const std::string& base,
    const std::vector<std::pair<std::size_t, std::string>>& overrides) const {
  auto base_gov = make_governor(base);
  if (overrides.empty()) return base_gov;
  auto composite = std::make_unique<PerSubAccelGovernor>(std::move(base_gov));
  for (const auto& [sub_accel, name] : overrides) {
    composite->set_override(sub_accel, make_governor(name));
  }
  return composite;
}

std::vector<std::string> PolicyRegistry::scheduler_names() const {
  return names(schedulers_);
}

std::vector<std::string> PolicyRegistry::governor_names() const {
  return names(governors_);
}

std::vector<std::string> PolicyRegistry::admission_names() const {
  return names(admissions_);
}

}  // namespace xrbench::runtime
