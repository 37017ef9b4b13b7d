#include "costmodel/cost_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "costmodel/hash.h"

namespace xrbench::costmodel {
namespace {

double ceil_div(double a, double b) { return std::ceil(a / b); }

std::int64_t bounded(std::int64_t dim, std::int64_t budget) {
  return std::max<std::int64_t>(1, std::min(dim, budget));
}

/// Finalizer-grade 64-bit mixer (splitmix64). The memo key fields are tiny
/// integers (PE counts, layer dims) whose raw bits cluster in the low byte;
/// hash_combine accumulates them cheaply (one xor-multiply per field) and a
/// single splitmix64 finalizer spreads the accumulated entropy across all
/// 64 bits. Without the finalizer a PE-count sweep lands whole key families
/// in a handful of buckets.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_double(double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// The operating points of `accel`'s DVFS ladder, or null for the empty
/// (fixed-clock) ladder, whose one lane runs at the configured clock.
const hw::DvfsOperatingPoint* ladder_ops(const SubAccelConfig& accel) {
  const auto& levels = accel.dvfs.levels;
  return levels.empty() ? nullptr : levels.data();
}

void check_accel(const SubAccelConfig& accel, const char* caller) {
  if (!accel.valid()) {
    throw std::invalid_argument(std::string(caller) +
                                ": invalid accelerator config '" + accel.id +
                                "'");
  }
}

}  // namespace

void AllLevelsScratch::ensure_lanes(std::size_t levels, std::size_t classes) {
  for (std::vector<double>* lane : {&clock_ghz, &noc_bpc, &offchip_bpc, &vr}) {
    if (lane->size() < levels) lane->resize(levels);
  }
  if (cores.size() < classes) cores.resize(classes);
  for (std::vector<double>* lane : {&noc_cycles, &dram_cycles, &total_cycles,
                                    &latency_ms, &utilization, &static_mj,
                                    &energy_mj}) {
    if (lane->size() < classes * levels) lane->resize(classes * levels);
  }
}

void AllLevelsScratch::reset_result(std::size_t levels, std::size_t layers) {
  if (result.size() != levels) result.resize(levels);
  for (auto& mc : result) {
    mc.latency_ms = 0.0;
    mc.energy_mj = 0.0;
    mc.static_energy_mj = 0.0;
    mc.avg_utilization = 0.0;
    mc.dram_traffic_bytes = 0.0;
    mc.layers.clear();  // keeps capacity: zero-alloc once warmed
    mc.layers.reserve(layers);
  }
}

const char* dataflow_name(Dataflow d) {
  switch (d) {
    case Dataflow::kWS: return "WS";
    case Dataflow::kOS: return "OS";
    case Dataflow::kRS: return "RS";
  }
  return "?";
}

Dataflow parse_dataflow(const std::string& s) {
  std::string u;
  for (char c : s) u += static_cast<char>(std::toupper(c));
  if (u == "WS") return Dataflow::kWS;
  if (u == "OS") return Dataflow::kOS;
  if (u == "RS") return Dataflow::kRS;
  throw std::invalid_argument("parse_dataflow: unknown dataflow '" + s + "'");
}

AnalyticalCostModel::AnalyticalCostModel(EnergyParams energy)
    : energy_(energy) {}

AnalyticalCostModel::AnalyticalCostModel(const AnalyticalCostModel& other)
    : AnalyticalCostModel(other.energy_) {}

AnalyticalCostModel& AnalyticalCostModel::operator=(
    const AnalyticalCostModel& other) {
  if (this != &other) {
    energy_ = other.energy_;
    clear_model_memo();
  }
  return *this;
}

SpatialMapping AnalyticalCostModel::spatial_mapping(
    const Layer& layer, Dataflow dataflow, std::int64_t num_pes) const {
  SpatialMapping m;
  if (is_vector_op(layer.type)) return m;
  const bool dw = layer.type == OpType::kDepthwiseConv2d;
  // Fixed array geometries (MAESTRO-style fixed dataflows): a layer whose
  // dimensions undershoot a lane budget leaves those lanes idle — this is
  // the under-utilization that makes dataflow choice matter per layer shape
  // (the core effect behind the paper's Figures 5-7).
  switch (dataflow) {
    case Dataflow::kWS: {
      // NVDLA-style 2D MAC array: output channels x input channels, with a
      // narrow input-column vector lane. Lane budget: C fixed at 64,
      // X fixed at 1 (columns stream temporally), K scales with the array.
      const std::int64_t x_lanes = 1;
      const std::int64_t c_lanes = 64;
      const std::int64_t k_lanes =
          std::max<std::int64_t>(1, num_pes / (x_lanes * c_lanes));
      const std::int64_t kdim = dw ? layer.c : layer.k;
      const std::int64_t cdim = dw ? 1 : layer.c;
      m.p0 = bounded(kdim, k_lanes);
      m.p1 = bounded(cdim, c_lanes);
      m.p2 = bounded(layer.x, x_lanes);
      break;
    }
    case Dataflow::kOS: {
      // Output rows x cols, each output lane backed by a 16-way adder tree.
      // Lane budget: Y fixed at 16, X scales with the array.
      const std::int64_t y_lanes = 16;
      const std::int64_t x_lanes = std::max<std::int64_t>(
          1, num_pes / (y_lanes * kOsAdderTreeWidth));
      m.p0 = bounded(layer.y, y_lanes);
      m.p1 = bounded(layer.x, x_lanes);
      const std::int64_t reduction = dw ? layer.r * layer.s : layer.c;
      m.p2 = bounded(reduction, kOsAdderTreeWidth);
      break;
    }
    case Dataflow::kRS: {
      // Eyeriss-style: output channels x output rows x kernel rows.
      // Lane budget: R fixed at 4, Y fixed at 16, K scales with the array.
      const std::int64_t r_lanes = 4;
      const std::int64_t y_lanes = 16;
      const std::int64_t k_lanes =
          std::max<std::int64_t>(1, num_pes / (r_lanes * y_lanes));
      const std::int64_t kdim = dw ? layer.c : layer.k;
      m.p0 = bounded(kdim, k_lanes);
      m.p1 = bounded(layer.y, y_lanes);
      m.p2 = bounded(layer.r, r_lanes);
      break;
    }
  }
  return m;
}

AnalyticalCostModel::LayerCostCore AnalyticalCostModel::mac_layer_core(
    const Layer& layer, const SubAccelConfig& accel) const {
  LayerCostCore core;
  const bool dw = layer.type == OpType::kDepthwiseConv2d;
  const SpatialMapping m =
      spatial_mapping(layer, accel.dataflow, accel.num_pes);
  core.mapping = m;

  const auto macs = static_cast<double>(layer.macs());
  const auto w_elems = static_cast<double>(layer.weight_bytes());
  const auto in_elems = static_cast<double>(layer.input_bytes());
  const auto out_elems = static_cast<double>(layer.output_bytes());

  // --- Compute cycles: temporal iterations with ceil edge effects. ---------
  double compute = 0.0;
  double sram = 0.0;  // SRAM<->PE traffic in bytes (8-bit elements)
  switch (accel.dataflow) {
    case Dataflow::kWS: {
      const double kdim = static_cast<double>(dw ? layer.c : layer.k);
      const double cdim = static_cast<double>(dw ? 1 : layer.c);
      compute = ceil_div(kdim, static_cast<double>(m.p0)) *
                ceil_div(cdim, static_cast<double>(m.p1)) *
                ceil_div(static_cast<double>(layer.x),
                         static_cast<double>(m.p2)) *
                static_cast<double>(layer.y) *
                static_cast<double>(layer.r) * static_cast<double>(layer.s);
      // Weights loaded once and pinned; inputs multicast across the K lane;
      // partial sums spill once per input-channel tile beyond the first.
      const double c_tiles = ceil_div(cdim, static_cast<double>(m.p1));
      sram = w_elems + macs / static_cast<double>(m.p0) +
             out_elems * (2.0 * c_tiles - 1.0);
      break;
    }
    case Dataflow::kOS: {
      const double reduction =
          dw ? static_cast<double>(layer.r * layer.s)
             : static_cast<double>(layer.c);
      const double other_reduction =
          dw ? 1.0 : static_cast<double>(layer.r * layer.s);
      const double kdim = static_cast<double>(dw ? layer.c : layer.k);
      compute = ceil_div(static_cast<double>(layer.y),
                         static_cast<double>(m.p0)) *
                ceil_div(static_cast<double>(layer.x),
                         static_cast<double>(m.p1)) *
                kdim * ceil_div(reduction, static_cast<double>(m.p2)) *
                other_reduction;
      // Outputs stationary; weights multicast across the spatial output
      // lanes; inputs stream into the tree with the better of halo
      // (sliding-window) reuse across adjacent output pixels and local
      // register reuse across output channels computed at the same pixel.
      const double window_reuse = static_cast<double>(layer.r * layer.s);
      const double k_reuse =
          dw ? 1.0 : std::min<double>(static_cast<double>(layer.k), 16.0);
      sram = out_elems + macs / static_cast<double>(m.p0 * m.p1) +
             macs / std::max(window_reuse, k_reuse);
      break;
    }
    case Dataflow::kRS: {
      const double kdim = static_cast<double>(dw ? layer.c : layer.k);
      const double cdim = static_cast<double>(dw ? 1 : layer.c);
      compute = ceil_div(kdim, static_cast<double>(m.p0)) *
                ceil_div(static_cast<double>(layer.y),
                         static_cast<double>(m.p1)) *
                ceil_div(static_cast<double>(layer.r),
                         static_cast<double>(m.p2)) *
                cdim * static_cast<double>(layer.x) *
                static_cast<double>(layer.s);
      // Weight rows rebroadcast once per output-row tile; inputs multicast
      // across the K lane; psums accumulate spatially across kernel rows.
      const double y_tiles =
          ceil_div(static_cast<double>(layer.y), static_cast<double>(m.p1));
      const double r_tiles =
          ceil_div(static_cast<double>(layer.r), static_cast<double>(m.p2));
      sram = w_elems * y_tiles + macs / static_cast<double>(m.p0) +
             out_elems * (2.0 * r_tiles - 1.0);
      break;
    }
  }

  core.compute_cycles = compute;
  core.noc_bytes = sram;
  core.sram_traffic_bytes = sram + in_elems;  // fills from DRAM land in SRAM
  core.dram_traffic_bytes = dram_traffic(layer, accel);
  core.macs = macs;
  core.util_weight = macs;
  core.dynamic_pj =
      macs * energy_.mac_pj +
      core.sram_traffic_bytes *
          (energy_.sram_pj_per_byte + energy_.noc_pj_per_byte) +
      core.dram_traffic_bytes * energy_.dram_pj_per_byte;
  return core;
}

AnalyticalCostModel::LayerCostCore AnalyticalCostModel::vector_layer_core(
    const Layer& layer, const SubAccelConfig& accel) const {
  LayerCostCore core;
  core.vector_op = true;
  const auto ops = static_cast<double>(layer.macs());
  const auto bytes = static_cast<double>(layer.input_bytes()) +
                     static_cast<double>(layer.output_bytes());
  core.compute_cycles =
      ops / (static_cast<double>(accel.num_pes) * kVectorOpEfficiency);
  core.noc_bytes = bytes;
  core.sram_traffic_bytes = bytes;
  // Vector ops are typically fused with neighbours; only a fraction of their
  // tensors round-trips to DRAM.
  core.dram_traffic_bytes = 0.25 * bytes;
  core.macs = ops;
  core.dynamic_pj =
      ops * 0.5 * energy_.mac_pj +
      core.sram_traffic_bytes *
          (energy_.sram_pj_per_byte + energy_.noc_pj_per_byte) +
      core.dram_traffic_bytes * energy_.dram_pj_per_byte;
  return core;
}

AnalyticalCostModel::LayerCostCore AnalyticalCostModel::layer_core(
    const Layer& layer, const SubAccelConfig& accel) const {
  return is_vector_op(layer.type) ? vector_layer_core(layer, accel)
                                  : mac_layer_core(layer, accel);
}

namespace {

// The per-level tail of one layer core across every level lane: the
// roofline max(compute, NoC, DRAM) + overhead against the lane's clock and
// bandwidths, the utilization clamp, the latency-proportional static
// energy, then the subtract-then-scale voltage pass. Each lane runs the
// plain scalar expression sequence of that tail (tests/cost_reference.h
// writes it out and the tests hold the kernel to it bit for bit).
//
// The lane math lives in a free function because the vectorizer only
// honours `restrict` on function PARAMETERS — on locals initialised from
// vector::data() the 11 streams would need 49 runtime alias checks, far
// past the versioning cap, and the loop stays scalar. It is forced inline:
// GCC 12's heuristics have left it out of line, which cost
// model_cost_all_levels ~20 % per (layer, level).
//
// One flat unit-stride loop over the level axis: straight-line lane math
// and selects instead of branches — the shape the loop vectorizer
// if-converts into full-width vector code plus a scalar epilogue for the
// tail lanes. The voltage pass uses a per-lane select — applying the
// transform at vr == 1 would NOT be bit-neutral ((e - s) + s != e in FP),
// hence the select keeps the untransformed values on unit-voltage lanes.
[[gnu::always_inline]] inline void finish_levels_lanes(
    std::size_t n, double compute, double noc_bytes, double dram_bytes,
    double macs, double pes, double pe_mw, double dynamic_mj,
    const double* __restrict clock, const double* __restrict noc_bpc,
    const double* __restrict off_bpc, const double* __restrict vr,
    double* __restrict out_noc, double* __restrict out_dram,
    double* __restrict out_total, double* __restrict out_lat,
    double* __restrict out_util, double* __restrict out_stat,
    double* __restrict out_en) {
  for (std::size_t l = 0; l < n; ++l) {
    const double noc_c = noc_bytes / noc_bpc[l];
    const double dram_c = dram_bytes / off_bpc[l];
    double total = compute < noc_c ? noc_c : compute;
    total = total < dram_c ? dram_c : total;
    total += AnalyticalCostModel::kLayerOverheadCycles;
    const double lat = total / (clock[l] * 1e6);
    // Utilization is a fraction of the array's MAC capacity by definition;
    // clamp against rounding slack in the cycle model.
    double util = macs / (total * pes);
    util = 0.0 < util ? util : 0.0;  // std::max(0.0, util)
    util = util < 1.0 ? util : 1.0;  // std::min(1.0, util)
    const double stat = pe_mw * lat * 1e-3;  // mW * ms = uJ; /1e3 -> mJ
    const double en = dynamic_mj + stat;
    const double v = vr[l];
    const double dyn = en - stat;
    const double stat_v = stat * v;
    const double en_v = dyn * v * v + stat_v;
    const bool scaled = v != 1.0;
    out_noc[l] = noc_c;
    out_dram[l] = dram_c;
    out_total[l] = total;
    out_lat[l] = lat;
    out_util[l] = util;
    out_stat[l] = scaled ? stat_v : stat;
    out_en[l] = scaled ? en_v : en;
  }
}

}  // namespace

double AnalyticalCostModel::dram_traffic(const Layer& layer,
                                         const SubAccelConfig& accel) const {
  const auto w = static_cast<double>(layer.weight_bytes());
  const auto in = static_cast<double>(layer.input_bytes());
  const auto out = static_cast<double>(layer.output_bytes());
  const double half_sram = static_cast<double>(accel.sram_bytes) / 2.0;
  if (w <= half_sram && in <= half_sram) {
    return w + in + out;  // single pass
  }
  // Choose the cheaper re-streaming strategy: inputs per weight tile, or
  // weights per input tile.
  const double by_weight_tiles = w + in * ceil_div(w, half_sram) + out;
  const double by_input_tiles = in + w * ceil_div(in, half_sram) + out;
  return std::min(by_weight_tiles, by_input_tiles);
}

LayerCost AnalyticalCostModel::layer_cost(const Layer& layer,
                                          const SubAccelConfig& accel) const {
  if (!layer.valid()) {
    throw std::invalid_argument("layer_cost: invalid layer '" + layer.name +
                                "'");
  }
  check_accel(accel, "layer_cost");
  ModelGraph graph;
  graph.add(layer);
  return one_lane(graph, accel, nullptr).layers.front();
}

ModelCost AnalyticalCostModel::model_cost(const ModelGraph& graph,
                                          const SubAccelConfig& accel) const {
  check_accel(accel, "model_cost");
  return one_lane(graph, accel, nullptr);
}

ModelCost AnalyticalCostModel::model_cost_at(const ModelGraph& graph,
                                             const SubAccelConfig& accel,
                                             std::size_t dvfs_level) const {
  const hw::DvfsState& dvfs = accel.dvfs;
  if (dvfs_level >= dvfs.num_levels()) {
    throw std::out_of_range("model_cost_at: DVFS level out of range for '" +
                            accel.id + "'");
  }
  check_accel(accel, "model_cost_at");
  return one_lane(graph, accel,
                  dvfs.levels.empty() ? nullptr : &dvfs.levels[dvfs_level]);
}

ModelCost AnalyticalCostModel::one_lane(
    const ModelGraph& graph, const SubAccelConfig& accel,
    const hw::DvfsOperatingPoint* op) const {
  AllLevelsScratch scratch;
  compute_all_levels(graph, accel, op, 1, scratch);
  return std::move(scratch.result.front());
}

void AnalyticalCostModel::walk_levels(const ModelGraph& graph,
                                      const SubAccelConfig& accel,
                                      const hw::DvfsOperatingPoint* ops,
                                      std::size_t num_lanes,
                                      AllLevelsScratch& s) const {
  const std::vector<Layer>& layers = graph.layers();
  const std::vector<std::uint32_t>& classes = graph.shape_classes();
  s.ensure_lanes(num_lanes, graph.class_shapes().size());

  // Per-lane operating points, hoisted out of the layer walk into the
  // scratch's SoA lanes. A shifted clock rescales the per-cycle bandwidths
  // so the physical GB/s (defined at the configured nominal clock) stay
  // constant — a bandwidth-bound layer does not get faster by up-clocking
  // the PEs. The scaled bandwidth is the product nominal * ratio, and the
  // kernel then divides the byte count by it; dividing by nominal and then
  // by ratio would be a different FP expression with different bits.
  for (std::size_t l = 0; l < num_lanes; ++l) {
    s.clock_ghz[l] = accel.clock_ghz;
    s.noc_bpc[l] = accel.noc_bytes_per_cycle;
    s.offchip_bpc[l] = accel.offchip_bytes_per_cycle;
    s.vr[l] = 1.0;
    if (ops == nullptr) continue;
    const hw::DvfsOperatingPoint& op = ops[l];
    if (op.freq_ghz != accel.clock_ghz) {
      const double ratio = accel.clock_ghz / op.freq_ghz;
      s.clock_ghz[l] = op.freq_ghz;
      s.noc_bpc[l] = accel.noc_bytes_per_cycle * ratio;
      s.offchip_bpc[l] = accel.offchip_bytes_per_cycle * ratio;
    }
    // The energy constants are calibrated at hw::kNominalVoltageV, so the
    // scaling anchor is global — tables whose nominal point sits at a
    // different voltage still produce energies comparable across sweeps.
    s.vr[l] = op.voltage_v / hw::kNominalVoltageV;
  }

  const double pes = static_cast<double>(accel.num_pes);
  // Loop-invariant leading subexpressions of the per-lane tail, hoisted.
  // Each is exactly the product the tail evaluates first in its
  // left-associative chain, so factoring it out is bit-neutral; hoisting
  // anything else (e.g. vr^2, or 1/bandwidth to turn the divides into
  // multiplies) would reassociate and change the bits.
  const double pe_mw = energy_.static_mw_per_pe * pes;

  // ONE walk over the layer list, in order. Shape classes are numbered in
  // first-occurrence order, so a layer opens a new class exactly when its
  // class equals the count of classes costed so far. That layer costs the
  // class: the level-invariant core (mapping, cycle counts, traffic,
  // switching energy) once, and the per-level tail across all lanes at once
  // into the class's lanes. Those lanes hold bit for bit what the core and
  // tail of any later layer of the class would give.
  std::size_t costed = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (classes[i] != costed) continue;
    const std::size_t lanes = costed * num_lanes;
    LayerCostCore& core = s.cores[costed];
    core = layer_core(layers[i], accel);
    finish_levels_lanes(
        num_lanes, core.compute_cycles, core.noc_bytes,
        core.dram_traffic_bytes, core.macs, pes, pe_mw,
        core.dynamic_pj * 1e-9, s.clock_ghz.data(), s.noc_bpc.data(),
        s.offchip_bpc.data(), s.vr.data(), s.noc_cycles.data() + lanes,
        s.dram_cycles.data() + lanes, s.total_cycles.data() + lanes,
        s.latency_ms.data() + lanes, s.utilization.data() + lanes,
        s.static_mj.data() + lanes, s.energy_mj.data() + lanes);
    ++costed;
  }
}

template <std::size_t Width>
void AnalyticalCostModel::sum_lane_block(const ModelGraph& graph,
                                         std::size_t num_lanes,
                                         std::size_t first,
                                         AllLevelsScratch& s,
                                         LayerPrefixes* prefixes) {
  const std::vector<std::uint32_t>& classes = graph.shape_classes();
  const std::size_t num_layers = classes.size();
  const std::size_t stride = num_layers + 1;  // prefix_index's
  const LayerCostCore* cores = s.cores.data();
  const double* lat_in = s.latency_ms.data() + first;
  const double* en_in = s.energy_mj.data() + first;
  const double* stat_in = s.static_mj.data() + first;
  const double* util_in = s.utilization.data() + first;
  // Lane k's running sums of layer i sit at prefix_index(first + k, i + 1).
  double* lat_out = nullptr;
  double* en_out = nullptr;
  double* stat_out = nullptr;
  if (prefixes != nullptr) {
    lat_out = prefixes->latency_prefix_ms.data() + first * stride + 1;
    en_out = prefixes->energy_prefix_mj.data() + first * stride + 1;
    stat_out = prefixes->static_prefix_mj.data() + first * stride + 1;
  }
  double lat[Width] = {};
  double en[Width] = {};
  double stat[Width] = {};
  double util[Width] = {};
  for (std::size_t i = 0; i < num_layers; ++i) {
    const std::size_t c = classes[i];
    const std::size_t at = c * num_lanes;
    // A vector op's weight is 0.0, and util * 0.0 added to a finite
    // non-negative sum leaves it exact: the sum is the MAC layers' alone.
    const double weight = cores[c].util_weight;
    for (std::size_t k = 0; k < Width; ++k) {
      lat[k] += lat_in[at + k];
      en[k] += en_in[at + k];
      stat[k] += stat_in[at + k];
      util[k] += util_in[at + k] * weight;
    }
    if (prefixes == nullptr) continue;
    for (std::size_t k = 0; k < Width; ++k) {
      lat_out[k * stride + i] = lat[k];
      en_out[k * stride + i] = en[k];
      stat_out[k * stride + i] = stat[k];
    }
  }
  for (std::size_t k = 0; k < Width; ++k) {
    s.sum_latency_ms[first + k] = lat[k];
    s.sum_energy_mj[first + k] = en[k];
    s.sum_static_mj[first + k] = stat[k];
    s.avg_utilization[first + k] = util[k];
  }
}

void AnalyticalCostModel::compute_all_levels(const ModelGraph& graph,
                                             const SubAccelConfig& accel,
                                             const hw::DvfsOperatingPoint* ops,
                                             std::size_t num_lanes,
                                             AllLevelsScratch& s) const {
  walk_levels(graph, accel, ops, num_lanes, s);
  // Scatter every layer's lanes into each lane's ModelCost, whose totals
  // (zeroed by reset_result) accumulate in layer order, the terms and
  // order of compute_columns' lane pass. Here they ride along the
  // scatter's stores instead: that pass, run first, cost the all-levels
  // kernel probe ~8 % more per (layer, level).
  s.reset_result(num_lanes, graph.num_layers());
  double total_macs = 0.0;
  for (std::uint32_t c : graph.shape_classes()) {
    const LayerCostCore& core = s.cores[c];
    const std::size_t lanes = c * num_lanes;
    total_macs += core.util_weight;
    for (std::size_t l = 0; l < num_lanes; ++l) {
      LayerCost lc;
      lc.mapping = core.mapping;
      lc.compute_cycles = core.compute_cycles;
      lc.noc_cycles = s.noc_cycles[lanes + l];
      lc.dram_cycles = s.dram_cycles[lanes + l];
      lc.total_cycles = s.total_cycles[lanes + l];
      lc.latency_ms = s.latency_ms[lanes + l];
      lc.energy_mj = s.energy_mj[lanes + l];
      lc.static_energy_mj = s.static_mj[lanes + l];
      lc.utilization = core.vector_op ? 0.0 : s.utilization[lanes + l];
      lc.sram_traffic_bytes = core.sram_traffic_bytes;
      lc.dram_traffic_bytes = core.dram_traffic_bytes;
      ModelCost& mc = s.result[l];
      mc.latency_ms += lc.latency_ms;
      mc.energy_mj += lc.energy_mj;
      mc.static_energy_mj += lc.static_energy_mj;
      mc.dram_traffic_bytes += lc.dram_traffic_bytes;
      mc.avg_utilization += lc.utilization * core.util_weight;
      mc.layers.push_back(lc);
    }
  }
  for (ModelCost& mc : s.result) {
    mc.avg_utilization =
        total_macs > 0 ? mc.avg_utilization / total_macs : 0.0;
  }
}

void AnalyticalCostModel::compute_columns(const ModelGraph& graph,
                                          const SubAccelConfig& accel,
                                          AllLevelsScratch& s,
                                          LayerPrefixes* prefixes) const {
  const std::size_t num_lanes = accel.dvfs.num_levels();
  walk_levels(graph, accel, ladder_ops(accel), num_lanes, s);
  for (std::vector<double>* sum : {&s.sum_latency_ms, &s.sum_energy_mj,
                                   &s.sum_static_mj, &s.avg_utilization}) {
    if (sum->size() < num_lanes) sum->resize(num_lanes);
  }
  if (prefixes != nullptr) {
    const std::size_t entries = num_lanes * (graph.num_layers() + 1);
    for (std::vector<double>* prefix :
         {&prefixes->latency_prefix_ms, &prefixes->energy_prefix_mj,
          &prefixes->static_prefix_mj}) {
      prefix->assign(entries, 0.0);  // every prefix[0] = 0
    }
  }
  // The lane pass: four lanes at a time keeps 16 accumulators in
  // registers, and a ladder's last 1-3 lanes take a narrower block. Each
  // lane's sums see the same terms in the same order whatever block
  // carries it.
  std::size_t first = 0;
  for (; first + 4 <= num_lanes; first += 4) {
    sum_lane_block<4>(graph, num_lanes, first, s, prefixes);
  }
  switch (num_lanes - first) {
    case 3: sum_lane_block<3>(graph, num_lanes, first, s, prefixes); break;
    case 2: sum_lane_block<2>(graph, num_lanes, first, s, prefixes); break;
    case 1: sum_lane_block<1>(graph, num_lanes, first, s, prefixes); break;
    default: break;
  }
  // The average utilization is weighted by MACs over the MAC layers, whose
  // MACs are summed in layer order.
  double total_macs = 0.0;
  for (std::uint32_t c : graph.shape_classes()) {
    total_macs += s.cores[c].util_weight;
  }
  for (std::size_t l = 0; l < num_lanes; ++l) {
    s.avg_utilization[l] =
        total_macs > 0 ? s.avg_utilization[l] / total_macs : 0.0;
  }
}

std::vector<ModelCost> AnalyticalCostModel::model_cost_all_levels(
    const ModelGraph& graph, const SubAccelConfig& accel) const {
  AllLevelsScratch scratch;
  model_cost_all_levels(graph, accel, scratch);
  return std::move(scratch.result);
}

const std::vector<ModelCost>& AnalyticalCostModel::model_cost_all_levels(
    const ModelGraph& graph, const SubAccelConfig& accel,
    AllLevelsScratch& scratch) const {
  check_accel(accel, "model_cost_all_levels");
  compute_all_levels(graph, accel, ladder_ops(accel), accel.dvfs.num_levels(),
                     scratch);
  return scratch.result;
}

struct AnalyticalCostModel::MemoEntry final : CostColumns {
  /// The key: every input the columns depend on. The layer shapes are the
  /// interned GraphKey of the graph's structure hash, shared by every entry
  /// of those shapes (the graph's own key only when its structure hash
  /// collides with another graph's).
  /// Layer names are excluded (graphs with equal layer shapes cost the
  /// same), and so are the config's id, transition_ms, idle_mw and
  /// nominal_level, which never enter a cost.
  std::shared_ptr<const GraphKey> key;
  SubAccelConfig accel;
  /// The energy constants of the model that made the entry, so the entry
  /// can build its prefixes after that model is gone.
  EnergyParams energy;
  /// build_prefixes runs, for MemoStats::prefix_builds.
  mutable std::atomic<std::uint64_t> prefix_builds{0};

  /// True when `graph` on `config` is this entry's key, compared in place.
  bool matches(const ModelGraph& graph, const SubAccelConfig& config) const {
    const auto& levels = accel.dvfs.levels;
    const auto& other = config.dvfs.levels;
    if (config.dataflow != accel.dataflow || config.num_pes != accel.num_pes ||
        config.sram_bytes != accel.sram_bytes ||
        config.clock_ghz != accel.clock_ghz ||
        config.noc_bytes_per_cycle != accel.noc_bytes_per_cycle ||
        config.offchip_bytes_per_cycle != accel.offchip_bytes_per_cycle ||
        other.size() != levels.size()) {
      return false;
    }
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (other[i].freq_ghz != levels[i].freq_ghz ||
          other[i].voltage_v != levels[i].voltage_v) {
        return false;
      }
    }
    return key->matches(graph);
  }

  const GraphKey& graph_key() const override { return *key; }

 private:
  /// Re-runs the miss's walk and lane pass on a graph rebuilt from the key,
  /// one layer per class-sequence element, with every running sum stored.
  /// A layer's shape is all that sets its cost, so the rebuilt graph walks
  /// the same classes in the same order and the sums keep the miss's bits.
  void build_prefixes(LayerPrefixes& prefixes) const override {
    ModelGraph graph;
    for (std::uint32_t c : key->shape_classes) {
      graph.add(Layer::from_shape(key->class_shapes[c]));
    }
    AllLevelsScratch scratch;
    AnalyticalCostModel(energy).compute_columns(graph, accel, scratch,
                                                &prefixes);
    ++prefix_builds;
  }
};

namespace {

/// The memo index of (graph, accel): the graph's structure hash extended
/// with every sub-accel field a MemoEntry key holds, then avalanched.
std::uint64_t memo_hash(const ModelGraph& graph, const SubAccelConfig& accel) {
  std::uint64_t h = hash_combine(graph.structure_hash(),
                                 static_cast<std::uint64_t>(accel.dataflow));
  h = hash_combine(h, static_cast<std::uint64_t>(accel.num_pes));
  h = hash_combine(h, static_cast<std::uint64_t>(accel.sram_bytes));
  h = hash_combine(h, hash_double(accel.clock_ghz));
  h = hash_combine(h, hash_double(accel.noc_bytes_per_cycle));
  h = hash_combine(h, hash_double(accel.offchip_bytes_per_cycle));
  for (const auto& op : accel.dvfs.levels) {
    h = hash_combine(h, hash_double(op.freq_ghz));
    h = hash_combine(h, hash_double(op.voltage_v));
  }
  return splitmix64(h);
}

}  // namespace

std::shared_ptr<const CostColumns> AnalyticalCostModel::cached_cost_columns(
    const ModelGraph& graph, const SubAccelConfig& accel,
    AllLevelsScratch* scratch) const {
  const std::uint64_t hash = memo_hash(graph, accel);
  MemoStripe& stripe = memo_[hash % memo_.size()];
  std::shared_ptr<const MemoEntry> entry;
  {
    std::lock_guard lock(stripe.mutex);
    const auto it = stripe.entries.find(hash);
    if (it != stripe.entries.end()) entry = it->second;
  }
  if (entry != nullptr && entry->matches(graph, accel)) {
    stripe.hits.fetch_add(1, std::memory_order_relaxed);
    return entry;
  }
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  check_accel(accel, "cached_cost_columns");
  auto fresh = std::make_shared<MemoEntry>();
  fresh->key = shared_graph_key(graph);
  fresh->accel = accel;
  fresh->energy = energy_;
  // The walk keeps each level's running sums in scratch lanes; the entry
  // takes only their totals.
  AllLevelsScratch local;
  AllLevelsScratch& s = scratch != nullptr ? *scratch : local;
  compute_columns(graph, accel, s, nullptr);
  fresh->num_layers = graph.num_layers();
  fresh->levels.resize(accel.dvfs.num_levels());
  for (std::size_t l = 0; l < fresh->levels.size(); ++l) {
    fresh->levels[l] = ModelTotals{s.sum_latency_ms[l], s.sum_energy_mj[l],
                                   s.sum_static_mj[l], s.avg_utilization[l]};
  }
  entry = std::move(fresh);
  std::shared_ptr<const MemoEntry> stored;
  {
    std::lock_guard lock(stripe.mutex);
    stored = stripe.entries.emplace(hash, entry).first->second;
  }
  // A racing winner's equal entry stays canonical.
  if (stored != entry && stored->matches(graph, accel)) entry = stored;
  return entry;
}

std::shared_ptr<const GraphKey> AnalyticalCostModel::shared_graph_key(
    const ModelGraph& graph) const {
  std::shared_ptr<const GraphKey> own = graph.key();
  std::shared_ptr<const GraphKey> interned;
  {
    std::lock_guard lock(graph_keys_mutex_);
    interned =
        graph_keys_.try_emplace(graph.structure_hash(), own).first->second;
  }
  // Another graph with the same structure hash may own the interned key.
  return interned->matches(graph) ? interned : own;
}

void AnalyticalCostModel::clear_model_memo() const {
  for (MemoStripe& stripe : memo_) {
    std::lock_guard lock(stripe.mutex);
    stripe.entries.clear();
    stripe.hits = 0;
    stripe.misses = 0;
  }
  std::lock_guard lock(graph_keys_mutex_);
  graph_keys_.clear();
}

MemoStats AnalyticalCostModel::model_memo_stats() const {
  MemoStats stats;
  for (MemoStripe& stripe : memo_) {
    std::lock_guard lock(stripe.mutex);
    stats.hits += stripe.hits.load(std::memory_order_relaxed);
    stats.misses += stripe.misses.load(std::memory_order_relaxed);
    stats.entries += stripe.entries.size();
    for (const auto& [hash, entry] : stripe.entries) {
      stats.prefix_builds += entry->prefix_builds;
    }
  }
  std::lock_guard lock(graph_keys_mutex_);
  stats.graph_keys = graph_keys_.size();
  return stats;
}

double AnalyticalCostModel::idle_power_mw(const SubAccelConfig& accel,
                                          std::size_t dvfs_level) const {
  const hw::DvfsState& dvfs = accel.dvfs;
  if (dvfs_level >= dvfs.num_levels()) {
    throw std::out_of_range("idle_power_mw: DVFS level out of range for '" +
                            accel.id + "'");
  }
  if (dvfs.idle_mw == 0.0 || dvfs.levels.empty()) return dvfs.idle_mw;
  // Leakage scales ~ V with supply voltage, the same first-order relation
  // the static execution term uses in model_cost_at.
  return dvfs.idle_mw *
         (dvfs.levels[dvfs_level].voltage_v / hw::kNominalVoltageV);
}

}  // namespace xrbench::costmodel
