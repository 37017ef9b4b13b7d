#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/admission.h"
#include "runtime/governor.h"
#include "runtime/scheduler.h"

namespace xrbench::runtime {

/// String-keyed registry of decision policies (schedulers, frequency
/// governors and admission controllers): the one table of policy names that
/// HarnessOptions, SweepEngine trial specs, CLI flags, bench ablations and
/// the program and fleet configs resolve through.
///
/// Built-in policies are registered at construction in a fixed order, so
/// name listings (and therefore sweeps that iterate them) are deterministic.
/// User policies register at startup (see examples/custom_scheduler.cpp);
/// lookups are mutex-guarded, so concurrent sweep trials can instantiate
/// policies safely.
class PolicyRegistry {
 public:
  using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;
  using GovernorFactory = std::function<std::unique_ptr<FrequencyGovernor>()>;
  using AdmissionFactory =
      std::function<std::unique_ptr<AdmissionController>()>;

  /// The process-wide registry, pre-populated with the shipped policies,
  /// each under its class's name(); `xrbench_cli --list-policies` lists
  /// them.
  static PolicyRegistry& instance();

  /// Registers a factory. Throws std::invalid_argument on an empty name or
  /// a duplicate registration.
  void register_scheduler(const std::string& name, SchedulerFactory factory);
  void register_governor(const std::string& name, GovernorFactory factory);
  void register_admission(const std::string& name, AdmissionFactory factory);

  /// Returns `name` if instance() has it, else throws the
  /// std::invalid_argument make_* throws for it, and builds no policy. The
  /// one name check of the config readers (static, so Section::get_as takes
  /// it as the name parser), the CLI flags and FleetSimulator::run.
  static std::string checked_scheduler(const std::string& name);
  static std::string checked_governor(const std::string& name);
  static std::string checked_admission(const std::string& name);

  /// Instantiates the named policy. Throws std::invalid_argument on an
  /// unknown name, listing the registered names in the message.
  std::unique_ptr<Scheduler> make_scheduler(const std::string& name) const;
  std::unique_ptr<FrequencyGovernor> make_governor(
      const std::string& name) const;
  std::unique_ptr<AdmissionController> make_admission(
      const std::string& name) const;

  /// Builds a governor from a base name plus per-sub-accelerator overrides
  /// (sub-accel index -> governor name). With no overrides this is exactly
  /// make_governor(base) — no composite wrapper on the common path.
  std::unique_ptr<FrequencyGovernor> make_governor_map(
      const std::string& base,
      const std::vector<std::pair<std::size_t, std::string>>& overrides)
      const;

  /// Registered names in registration order (deterministic sweeps).
  std::vector<std::string> scheduler_names() const;
  std::vector<std::string> governor_names() const;
  std::vector<std::string> admission_names() const;

 private:
  /// One policy family: names and factories in registration order, behind
  /// one lock. Every public method forwards to policy_registry.cpp's one
  /// implementation over it.
  template <typename Policy>
  struct Family {
    using Factory = std::function<std::unique_ptr<Policy>()>;
    const char* kind;  ///< Names the family in registration errors.
    const char* noun;  ///< Names it in duplicate and lookup errors.
    mutable std::mutex mutex;
    std::vector<std::pair<std::string, Factory>> entries;
  };

  PolicyRegistry();

  Family<Scheduler> schedulers_{"scheduler", "scheduler", {}, {}};
  Family<FrequencyGovernor> governors_{"governor", "governor", {}, {}};
  Family<AdmissionController> admissions_{
      "admission", "admission policy", {}, {}};
};

}  // namespace xrbench::runtime
