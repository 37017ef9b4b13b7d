#include "runtime/cost_table.h"

#include <stdexcept>

#include "models/zoo.h"

namespace xrbench::runtime {

CostTable::CostTable(const hw::AcceleratorSystem& system,
                     const costmodel::AnalyticalCostModel& cost_model,
                     costmodel::AllLevelsScratch* scratch)
    : num_sub_accels_(system.sub_accels.size()) {
  if (num_sub_accels_ == 0) {
    throw std::invalid_argument("CostTable: accelerator system is empty");
  }
  num_levels_.reserve(num_sub_accels_);
  nominal_level_.reserve(num_sub_accels_);
  level_offset_.reserve(num_sub_accels_);
  nominal_offset_.reserve(num_sub_accels_);
  for (const auto& sa : system.sub_accels) {
    if (!sa.dvfs.valid() || !sa.dvfs.anchored_at(sa.clock_ghz)) {
      // A DVFS table anchored at a different clock would make the
      // "nominal" row silently diverge from the fixed-clock costs.
      throw std::invalid_argument(
          "CostTable: invalid or mis-anchored DVFS table on "
          "sub-accelerator '" +
          sa.id + "'");
    }
    level_offset_.push_back(total_levels_);
    num_levels_.push_back(sa.dvfs.num_levels());
    nominal_level_.push_back(sa.dvfs.levels.empty() ? 0
                                                    : sa.dvfs.nominal_level);
    nominal_offset_.push_back(level_offset_.back() + nominal_level_.back());
    total_levels_ += num_levels_.back();
  }

  costs_.resize(models::kNumTasks * total_levels_);
  columns_.resize(models::kNumTasks * num_sub_accels_);
  // One scratch for the whole build loop: after the first (task, sub-accel)
  // evaluation at the largest ladder, every later model-memo miss reuses
  // its level lanes instead of re-allocating them. A miss writes only each
  // level's totals into the new memo entry, so neither the scratch nor the
  // entry holds per-layer results.
  costmodel::AllLevelsScratch local;
  costmodel::AllLevelsScratch& lanes = scratch != nullptr ? *scratch : local;
  for (models::TaskId task : models::all_tasks()) {
    const auto& graph = models::model_graph(task);
    const std::size_t t = models::task_index(task);
    for (std::size_t sa = 0; sa < num_sub_accels_; ++sa) {
      // One memoized all-levels evaluation per (task, sub-accelerator): the
      // batched kernel walks the layer list once for the whole DVFS ladder
      // (bit-identical to per-level model_cost_at, test-enforced), and the
      // model memo makes repeated designs across sweep points free.
      auto column = cost_model.cached_cost_columns(
          graph, system.sub_accels[sa], &lanes);
      for (std::size_t lvl = 0; lvl < num_levels_[sa]; ++lvl) {
        costs_[t * total_levels_ + level_offset_[sa] + lvl] =
            column->levels[lvl];
      }
      columns_[t * num_sub_accels_ + sa] = std::move(column);
    }
  }
  idle_power_w_.resize(total_levels_);
  for (std::size_t sa = 0; sa < num_sub_accels_; ++sa) {
    for (std::size_t lvl = 0; lvl < num_levels_[sa]; ++lvl) {
      idle_power_w_[level_offset_[sa] + lvl] =
          cost_model.idle_power_mw(system.sub_accels[sa], lvl) / 1000.0;
    }
  }
}

double CostTable::idle_power_w(std::size_t sub_accel,
                               std::size_t level) const {
  check_sub_accel(sub_accel);
  if (level >= num_levels_[sub_accel]) {
    throw std::out_of_range("CostTable::idle_power_w: level out of range");
  }
  return idle_power_w_[level_offset_[sub_accel] + level];
}

void CostTable::throw_sub_accel_out_of_range() {
  throw std::out_of_range("CostTable: sub_accel out of range");
}

void CostTable::throw_level_out_of_range() {
  throw std::out_of_range("CostTable::cost: DVFS level out of range");
}

const costmodel::CostColumns& CostTable::checked_column(
    models::TaskId task, std::size_t sub_accel, std::size_t level,
    std::size_t layer) const {
  check_sub_accel(sub_accel);
  if (level >= num_levels_[sub_accel]) {
    throw std::out_of_range("CostTable: DVFS level out of range");
  }
  const auto& column =
      *columns_[models::task_index(task) * num_sub_accels_ + sub_accel];
  if (layer > column.num_layers) {
    throw std::out_of_range("CostTable: layer prefix out of range");
  }
  return column;
}

std::size_t CostTable::completed_layers(models::TaskId task,
                                        std::size_t sub_accel,
                                        std::size_t level,
                                        std::size_t from_layer,
                                        double elapsed_ms) const {
  const auto& column = checked_column(task, sub_accel, level, 0);
  const std::size_t num_layers = column.num_layers;
  if (from_layer > num_layers) {
    throw std::out_of_range("CostTable::completed_layers: from_layer");
  }
  const double* prefix = column.layer_prefixes().latency_prefix_ms.data() +
                         column.prefix_index(level, 0);
  const double start = prefix[from_layer];
  std::size_t k = from_layer;
  while (k < num_layers && prefix[k + 1] - start <= elapsed_ms) ++k;
  return k;
}

std::size_t CostTable::fastest_sub_accel(models::TaskId task) const {
  std::size_t best = 0;
  for (std::size_t sa = 1; sa < num_sub_accels_; ++sa) {
    if (latency_ms(task, sa) < latency_ms(task, best)) best = sa;
  }
  return best;
}

}  // namespace xrbench::runtime
