#pragma once

#include <memory>
#include <vector>

#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "models/task.h"

namespace xrbench::runtime {

/// Latency/energy of one (model, sub-accelerator, DVFS level) triple.
using ExecutionCost = costmodel::ModelTotals;

/// Precomputed execution costs of every unit model on every sub-accelerator
/// of one accelerator system, at every DVFS operating level the
/// sub-accelerator exposes. The dispatcher (and the FrequencyGovernor it
/// consults) query this table instead of re-running the analytical model per
/// request (models are static per run, mirroring the paper's
/// MAESTRO-precomputation flow). A sub-accelerator without a DVFS table has
/// exactly one level — the nominal clock — so the non-DVFS path pays no
/// extra build cost.
class CostTable {
 public:
  /// Evaluates all 11 unit models on each (sub-accelerator, level) of
  /// `system`. `scratch`, when given, supplies the layer walk's lanes for
  /// every model-memo miss of the build (the caller keeps it, one per
  /// thread, across builds: SweepEngine passes its worker's); without one
  /// the build owns a scratch of its own for its duration. The table
  /// holds no reference to either.
  CostTable(const hw::AcceleratorSystem& system,
            const costmodel::AnalyticalCostModel& cost_model,
            costmodel::AllLevelsScratch* scratch = nullptr);

  // The accessors below sit on the runner's per-event path (every
  // (pending, idle) pair the scheduler weighs, every dispatch and
  // completion), so they are inline: a bounds check and one multiply-add
  // each, with the throw itself out of line.

  /// Cost at the sub-accelerator's nominal level. Throws std::out_of_range.
  const ExecutionCost& cost(models::TaskId task, std::size_t sub_accel) const {
    check_sub_accel(sub_accel);
    return costs_[models::task_index(task) * total_levels_ +
                  nominal_offset_[sub_accel]];
  }
  /// Cost at an explicit DVFS level. Throws std::out_of_range.
  const ExecutionCost& cost(models::TaskId task, std::size_t sub_accel,
                            std::size_t level) const {
    check_sub_accel(sub_accel);
    if (level >= num_levels_[sub_accel]) throw_level_out_of_range();
    return costs_[models::task_index(task) * total_levels_ +
                  level_offset_[sub_accel] + level];
  }

  double latency_ms(models::TaskId task, std::size_t sub_accel) const {
    return cost(task, sub_accel).latency_ms;
  }
  double latency_ms(models::TaskId task, std::size_t sub_accel,
                    std::size_t level) const {
    return cost(task, sub_accel, level).latency_ms;
  }
  double energy_mj(models::TaskId task, std::size_t sub_accel) const {
    return cost(task, sub_accel).energy_mj;
  }
  double energy_mj(models::TaskId task, std::size_t sub_accel,
                   std::size_t level) const {
    return cost(task, sub_accel, level).energy_mj;
  }

  /// Index of the sub-accelerator with minimal nominal latency for `task`.
  std::size_t fastest_sub_accel(models::TaskId task) const;

  std::size_t num_sub_accels() const { return num_sub_accels_; }

  /// Number of DVFS levels of `sub_accel` (>= 1).
  std::size_t num_levels(std::size_t sub_accel) const {
    check_sub_accel(sub_accel);
    return num_levels_[sub_accel];
  }
  /// The nominal (calibration) level of `sub_accel`.
  std::size_t nominal_level(std::size_t sub_accel) const {
    return checked_nominal(sub_accel);
  }

  /// Idle power (W) of `sub_accel` parked at `level`, precomputed from
  /// DvfsState::idle_mw at the level's voltage. 0 for hardware without an
  /// idle-power term — the runner skips idle accounting entirely then.
  double idle_power_w(std::size_t sub_accel, std::size_t level) const;

  // ---- Layer-granular cost prefixes (checkpoint/resume) ------------------
  // Per (task, sub-accel, level) prefix sums over the model's layers, in
  // graph order and summed left-to-right exactly like model_cost_at — so
  // prefix[num_layers] is bit-identical to the whole-model cost above, and
  // a resume at layer k pays exactly (total - prefix[k]). Building the
  // table writes no prefixes: the first read of a (task, sub-accel) pair
  // builds that pair's columns' prefixes (CostColumns::layer_prefixes),
  // once for every table sharing them, so fault-free runs, which never
  // read them, never build them.

  /// Number of layers in `task`'s model graph.
  std::size_t num_layers(models::TaskId task) const {
    return columns_[models::task_index(task) * num_sub_accels_]->num_layers;
  }
  /// Sum of the first `layer` layers' latencies (0 <= layer <= num_layers).
  double layer_latency_prefix_ms(models::TaskId task, std::size_t sub_accel,
                                 std::size_t level, std::size_t layer) const {
    const auto& col = checked_column(task, sub_accel, level, layer);
    const auto& prefixes = col.layer_prefixes();
    return prefixes.latency_prefix_ms[col.prefix_index(level, layer)];
  }
  /// Sum of the first `layer` layers' total energies.
  double layer_energy_prefix_mj(models::TaskId task, std::size_t sub_accel,
                                std::size_t level, std::size_t layer) const {
    const auto& col = checked_column(task, sub_accel, level, layer);
    const auto& prefixes = col.layer_prefixes();
    return prefixes.energy_prefix_mj[col.prefix_index(level, layer)];
  }
  /// Sum of the first `layer` layers' static (leakage) energies.
  double layer_static_prefix_mj(models::TaskId task, std::size_t sub_accel,
                                std::size_t level, std::size_t layer) const {
    const auto& col = checked_column(task, sub_accel, level, layer);
    const auto& prefixes = col.layer_prefixes();
    return prefixes.static_prefix_mj[col.prefix_index(level, layer)];
  }
  /// Number of layers fully completed by an execution that started at layer
  /// `from_layer` and ran for `elapsed_ms` on (sub_accel, level): the
  /// largest k in [from_layer, num_layers] with
  /// prefix[k] - prefix[from_layer] <= elapsed_ms. A deterministic forward
  /// walk over the prefix array — identical on every replay of the same
  /// kill, which is what keeps checkpointed sweeps byte-stable.
  std::size_t completed_layers(models::TaskId task, std::size_t sub_accel,
                               std::size_t level, std::size_t from_layer,
                               double elapsed_ms) const;

 private:
  void check_sub_accel(std::size_t sub_accel) const {
    if (sub_accel >= num_sub_accels_) throw_sub_accel_out_of_range();
  }
  [[noreturn]] static void throw_sub_accel_out_of_range();
  [[noreturn]] static void throw_level_out_of_range();
  std::size_t checked_nominal(std::size_t sub_accel) const {
    check_sub_accel(sub_accel);
    return nominal_level_[sub_accel];
  }
  /// The cost column of (task, sub_accel), after checking sub_accel, level
  /// and layer against it. Throws std::out_of_range.
  const costmodel::CostColumns& checked_column(models::TaskId task,
                                               std::size_t sub_accel,
                                               std::size_t level,
                                               std::size_t layer) const;

  std::size_t num_sub_accels_ = 0;
  std::size_t total_levels_ = 0;  ///< Sum of num_levels_ over sub-accels.
  std::vector<std::size_t> num_levels_;     ///< Per sub-accelerator.
  std::vector<std::size_t> nominal_level_;  ///< Per sub-accelerator.
  std::vector<std::size_t> level_offset_;   ///< Prefix sums of num_levels_.
  /// level_offset_ + nominal_level_, precomputed for the nominal hot path.
  std::vector<std::size_t> nominal_offset_;
  // Row-major [task][level_offset(sub_accel) + level].
  std::vector<ExecutionCost> costs_;
  /// Idle power (W) per [level_offset(sub_accel) + level].
  std::vector<double> idle_power_w_;
  /// The model memo's cost columns per [task][sub_accel], shared with the
  /// memo and with every other table of the same (model, sub-accelerator)
  /// pair. They own their data and build their own prefixes, so the table
  /// stays valid after the memo is cleared or the cost model is destroyed.
  std::vector<std::shared_ptr<const costmodel::CostColumns>> columns_;
};

}  // namespace xrbench::runtime
