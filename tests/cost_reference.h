#pragma once

// Test-only oracle for the analytical cost model: the scalar per-level
// walk — one roofline, static-energy and voltage pass per (layer, level),
// then layer-order sums — that AnalyticalCostModel's level-axis lane kernel
// must reproduce bit for bit. The level-invariant part of each layer comes
// from the public layer_cost() on a twin config with unit bytes-per-cycle
// and zero static power: there noc_cycles is the NoC byte count
// (x / 1.0 == x) and energy_mj the dynamic energy alone (x + 0.0 == x).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "costmodel/cost_model.h"
#include "hw/dvfs.h"

namespace xrbench::costmodel::reference {

/// A strictly-ascending k-point ladder anchored at `nominal_clock` (the
/// 1.0x multiplier is always the last, nominal, point) with the default
/// ladder's near-linear V/f relation. Level counts that are not a multiple
/// of the vector width exercise the kernel's scalar epilogue, and those
/// that are not a multiple of four the lane pass's narrower blocks.
inline hw::DvfsState ladder_with_levels(std::size_t k, double nominal_clock) {
  hw::DvfsState dvfs;
  dvfs.levels.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double mult = 1.0 - 0.1 * static_cast<double>(k - 1 - i);
    hw::DvfsOperatingPoint op;
    op.freq_ghz = nominal_clock * mult;
    op.voltage_v = hw::kNominalVoltageV * (0.55 + 0.45 * mult);
    dvfs.levels.push_back(op);
  }
  dvfs.nominal_level = k - 1;
  return dvfs;
}

/// model_cost_at(graph, accel, l) for the operating point `op` of level l,
/// or model_cost(graph, accel) — the configured clock at unit voltage
/// ratio — when `op` is null.
inline ModelCost walk(const AnalyticalCostModel& cm, const ModelGraph& graph,
                      const SubAccelConfig& accel,
                      const hw::DvfsOperatingPoint* op) {
  // A shifted clock rescales the per-cycle bandwidths (nominal * ratio) so
  // the physical GB/s stay constant.
  double clock = accel.clock_ghz;
  double noc_bpc = accel.noc_bytes_per_cycle;
  double off_bpc = accel.offchip_bytes_per_cycle;
  double vr = 1.0;
  if (op != nullptr) {
    if (op->freq_ghz != accel.clock_ghz) {
      const double ratio = accel.clock_ghz / op->freq_ghz;
      clock = op->freq_ghz;
      noc_bpc = accel.noc_bytes_per_cycle * ratio;
      off_bpc = accel.offchip_bytes_per_cycle * ratio;
    }
    vr = op->voltage_v / hw::kNominalVoltageV;
  }
  SubAccelConfig twin = accel;
  twin.noc_bytes_per_cycle = 1.0;
  twin.offchip_bytes_per_cycle = 1.0;
  twin.dvfs = hw::DvfsState{};
  EnergyParams dynamic_only = cm.energy_params();
  dynamic_only.static_mw_per_pe = 0.0;
  const AnalyticalCostModel twin_model(dynamic_only);
  const auto pes = static_cast<double>(accel.num_pes);

  ModelCost mc;
  double weighted_util = 0.0;
  double total_macs = 0.0;
  for (const Layer& layer : graph.layers()) {
    const LayerCost core = twin_model.layer_cost(layer, twin);
    const bool vector_op = is_vector_op(layer.type);
    const auto macs = static_cast<double>(layer.macs());
    LayerCost lc = core;  // mapping, compute cycles and traffic carry over
    lc.noc_cycles = core.noc_cycles / noc_bpc;
    lc.dram_cycles = core.dram_traffic_bytes / off_bpc;
    lc.total_cycles =
        std::max({lc.compute_cycles, lc.noc_cycles, lc.dram_cycles}) +
        AnalyticalCostModel::kLayerOverheadCycles;
    lc.latency_ms = lc.total_cycles / (clock * 1e6);
    const double util = macs / (lc.total_cycles * pes);
    lc.utilization = vector_op ? 0.0 : std::min(1.0, std::max(0.0, util));
    lc.static_energy_mj =
        cm.energy_params().static_mw_per_pe * pes * lc.latency_ms * 1e-3;
    lc.energy_mj = core.energy_mj + lc.static_energy_mj;
    if (vr != 1.0) {  // dynamic ~ V^2, static ~ V
      const double dynamic_mj = lc.energy_mj - lc.static_energy_mj;
      lc.static_energy_mj *= vr;
      lc.energy_mj = dynamic_mj * vr * vr + lc.static_energy_mj;
    }
    mc.latency_ms += lc.latency_ms;
    mc.energy_mj += lc.energy_mj;
    mc.static_energy_mj += lc.static_energy_mj;
    mc.dram_traffic_bytes += lc.dram_traffic_bytes;
    if (!vector_op) {
      weighted_util += lc.utilization * macs;
      total_macs += macs;
    }
    mc.layers.push_back(lc);
  }
  mc.avg_utilization = total_macs > 0 ? weighted_util / total_macs : 0.0;
  return mc;
}

/// The walk at every DVFS level of `accel` (one nominal level when the
/// ladder is empty).
inline std::vector<ModelCost> all_levels(const AnalyticalCostModel& cm,
                                         const ModelGraph& graph,
                                         const SubAccelConfig& accel) {
  if (accel.dvfs.levels.empty()) return {walk(cm, graph, accel, nullptr)};
  std::vector<ModelCost> result;
  for (const auto& op : accel.dvfs.levels) {
    result.push_back(walk(cm, graph, accel, &op));
  }
  return result;
}

inline void expect_layer_cost_eq(const LayerCost& a, const LayerCost& b) {
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.noc_cycles, b.noc_cycles);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.static_energy_mj, b.static_energy_mj);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.sram_traffic_bytes, b.sram_traffic_bytes);
  EXPECT_EQ(a.dram_traffic_bytes, b.dram_traffic_bytes);
  EXPECT_EQ(a.mapping.p0, b.mapping.p0);
  EXPECT_EQ(a.mapping.p1, b.mapping.p1);
  EXPECT_EQ(a.mapping.p2, b.mapping.p2);
}

/// Bit equality of every field, layer by layer.
inline void expect_model_cost_eq(const ModelCost& a, const ModelCost& b) {
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.static_energy_mj, b.static_energy_mj);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.dram_traffic_bytes, b.dram_traffic_bytes);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    expect_layer_cost_eq(a.layers[i], b.layers[i]);
  }
}

/// Bit equality of cost columns with `expected`, one ModelCost per level:
/// each level's totals, and the running sums of its layers added left to
/// right from 0.0, which end on the level's totals bit for bit.
inline void expect_columns_eq(const CostColumns& c,
                              const std::vector<ModelCost>& expected) {
  ASSERT_EQ(c.levels.size(), expected.size());
  const LayerPrefixes& p = c.layer_prefixes();
  const std::size_t entries = expected.size() * (c.num_layers + 1);
  ASSERT_EQ(p.latency_prefix_ms.size(), entries);
  ASSERT_EQ(p.energy_prefix_mj.size(), entries);
  ASSERT_EQ(p.static_prefix_mj.size(), entries);
  for (std::size_t lvl = 0; lvl < expected.size(); ++lvl) {
    SCOPED_TRACE("level " + std::to_string(lvl));
    const ModelCost& mc = expected[lvl];
    ASSERT_EQ(c.num_layers, mc.layers.size());
    const ModelTotals& totals = c.levels[lvl];
    EXPECT_EQ(totals.latency_ms, mc.latency_ms);
    EXPECT_EQ(totals.energy_mj, mc.energy_mj);
    EXPECT_EQ(totals.static_energy_mj, mc.static_energy_mj);
    EXPECT_EQ(totals.avg_utilization, mc.avg_utilization);
    double lat = 0.0, energy = 0.0, stat = 0.0;
    for (std::size_t k = 0; k <= mc.layers.size(); ++k) {
      const std::size_t i = c.prefix_index(lvl, k);
      EXPECT_EQ(p.latency_prefix_ms[i], lat);
      EXPECT_EQ(p.energy_prefix_mj[i], energy);
      EXPECT_EQ(p.static_prefix_mj[i], stat);
      if (k < mc.layers.size()) {
        lat += mc.layers[k].latency_ms;
        energy += mc.layers[k].energy_mj;
        stat += mc.layers[k].static_energy_mj;
      }
    }
    EXPECT_EQ(lat, mc.latency_ms);
    EXPECT_EQ(energy, mc.energy_mj);
    EXPECT_EQ(stat, mc.static_energy_mj);
  }
}

}  // namespace xrbench::costmodel::reference
