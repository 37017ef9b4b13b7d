#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "costmodel/dataflow.h"
#include "costmodel/graph.h"
#include "costmodel/layer.h"
#include "hw/dvfs.h"

namespace xrbench::costmodel {

/// One sub-accelerator: a PE array with a fixed dataflow plus its share of
/// the chip's SRAM / NoC / off-chip bandwidth (Table 5 partitions a 4K- or
/// 8K-PE chip into 1, 2 or 4 such instances).
struct SubAccelConfig {
  std::string id;                      ///< e.g. "J.0"
  Dataflow dataflow = Dataflow::kWS;
  std::int64_t num_pes = 4096;
  double clock_ghz = 1.0;              ///< Nominal core clock.
  double noc_bytes_per_cycle = 256.0;   ///< 256 GB/s at 1 GHz (paper §4.1).
  double offchip_bytes_per_cycle = 24.0;///< Wearable LPDDR-class share.
  std::int64_t sram_bytes = 8ll << 20;  ///< 8 MiB shared memory (paper §4.1).
  /// DVFS operating points selectable at runtime. Empty = fixed nominal
  /// clock. The per-cycle bandwidths above are interpreted relative to
  /// `clock_ghz` (physical GB/s stay constant when the core clock moves),
  /// and the table's nominal frequency must equal `clock_ghz` — that anchor
  /// is what keeps nominal-level costs bit-identical to the fixed-clock
  /// path (hw::with_dvfs enforces it at attach time, valid() everywhere
  /// else).
  hw::DvfsState dvfs;

  /// True when every resource is positive and finite (NaN fails the `> 0`
  /// tests) and the DVFS table is valid and anchored at clock_ghz.
  bool valid() const {
    return num_pes > 0 && clock_ghz > 0 && noc_bytes_per_cycle > 0 &&
           offchip_bytes_per_cycle > 0 && std::isfinite(clock_ghz) &&
           std::isfinite(noc_bytes_per_cycle) &&
           std::isfinite(offchip_bytes_per_cycle) && sram_bytes > 0 &&
           dvfs.valid() && dvfs.anchored_at(clock_ghz);
  }
};

/// Energy model constants (8-bit datapath). Values are in picojoules and
/// chosen from the usual CMOS accounting (MAC << SRAM << DRAM); see
/// DESIGN.md for the calibration note.
struct EnergyParams {
  double mac_pj = 1.0;             ///< Energy per 8-bit MAC.
  double sram_pj_per_byte = 6.0;   ///< SRAM read/write per byte.
  double noc_pj_per_byte = 2.0;    ///< On-chip network transfer per byte.
  double dram_pj_per_byte = 160.0; ///< Off-chip access per byte.
  double static_mw_per_pe = 0.25;  ///< Leakage/clock power per PE.
};

/// Cost of one layer on one sub-accelerator.
struct LayerCost {
  double compute_cycles = 0.0;
  double noc_cycles = 0.0;
  double dram_cycles = 0.0;
  double total_cycles = 0.0;  ///< max of the three + fixed overhead
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double static_energy_mj = 0.0;  ///< Leakage/clock share of energy_mj.
  double utilization = 0.0;       ///< MACs / (total_cycles * PEs); 0 for vector ops
  double sram_traffic_bytes = 0.0;
  double dram_traffic_bytes = 0.0;
  SpatialMapping mapping;
};

/// Counters of the model-level memo. hits + misses = total
/// cached_cost_columns() lookups, counted exactly; misses can exceed
/// entries when two threads race on the same key (both compute, one insert
/// wins).
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  /// Per-layer prefix builds among the entries (CostColumns::
  /// layer_prefixes), counted exactly: at most one per entry.
  std::uint64_t prefix_builds = 0;
  /// Graph keys the memo interns, counted exactly: one per distinct
  /// structure hash a miss saw, so 11 after any full-zoo sweep. Each is
  /// the key object of the first graph that missed with that hash
  /// (ModelGraph::key), not a copy of it.
  std::size_t graph_keys = 0;

  double hit_rate() const {
    const auto lookups = static_cast<double>(hits + misses);
    return lookups == 0.0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Cost of a whole model (layer-sequential execution).
struct ModelCost {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double static_energy_mj = 0.0;  ///< Leakage/clock share of energy_mj.
  double avg_utilization = 0.0;  ///< MAC-weighted average across MAC layers.
  double dram_traffic_bytes = 0.0;
  std::vector<LayerCost> layers;
};

/// The totals of a ModelCost that a runtime::CostTable cell holds.
struct ModelTotals {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  /// Leakage/clock share of energy_mj (the rest is dynamic switching
  /// energy). Telemetry streams this split into the per-sub-accelerator
  /// dynamic/static breakdown.
  double static_energy_mj = 0.0;
  double avg_utilization = 0.0;
};

/// The per-layer running sums of one (model graph, sub-accelerator) pair
/// at every DVFS level. Per level, num_layers + 1 sums: entry
/// CostColumns::prefix_index(l, k) sums level l's first k layers, added
/// left to right like the ModelCost totals, so prefix_index(l, num_layers)
/// holds level l's total bit for bit (a checkpoint resumed at layer k pays
/// exactly total - prefix[k]).
struct LayerPrefixes {
  std::vector<double> latency_prefix_ms;
  std::vector<double> energy_prefix_mj;
  std::vector<double> static_prefix_mj;
};

/// What a runtime::CostTable reads of one (model graph, sub-accelerator)
/// pair at every DVFS level of the sub-accelerator. The model-level memo
/// stores exactly this, and tables share it instead of copying it. A memo
/// miss writes each level's totals, which every run reads; the lane pass
/// that sums them adds each level's layers in layer order from 0.0, as a
/// ModelCost total does. The per-layer running sums, which only checkpoint
/// resumes and outage kills read, are built on the first layer_prefixes()
/// call by the same pass, so fault-free runs never build them. Only the
/// memo makes columns (cached_cost_columns).
class CostColumns {
 public:
  CostColumns(const CostColumns&) = delete;
  CostColumns& operator=(const CostColumns&) = delete;
  virtual ~CostColumns() = default;

  std::size_t num_layers = 0;
  std::vector<ModelTotals> levels;  ///< Level l's model_cost_at() totals.

  std::size_t prefix_index(std::size_t level, std::size_t layer) const {
    return level * (num_layers + 1) + layer;
  }

  /// The per-layer running sums. The first call builds them with the
  /// memo miss's layer walk and lane pass, re-run from the memo entry's
  /// own key and energy constants, so it needs neither the memo nor the
  /// cost model that made the columns. Later calls, and every table holding
  /// these columns, share the result. Thread-safe: concurrent first calls build
  /// once.
  const LayerPrefixes& layer_prefixes() const {
    std::call_once(prefixes_built_, [this] { build_prefixes(prefixes_); });
    return prefixes_;
  }

  /// The layer shapes the columns were computed for: the key object of
  /// the first graph with these shapes that missed in the memo, shared by
  /// every entry of those shapes (a key of its own only when its graph's
  /// structure hash collides with another's).
  virtual const GraphKey& graph_key() const = 0;

 protected:
  CostColumns() = default;

 private:
  /// Fills `prefixes`; the model memo's entry implements it.
  virtual void build_prefixes(LayerPrefixes& prefixes) const = 0;

  mutable std::once_flag prefixes_built_;
  mutable LayerPrefixes prefixes_;
};

/// Reusable scratch for the level-axis lane kernel: every per-call
/// allocation of the layer walk (the SoA level-parameter lanes, the
/// per-shape-class cores and output lanes, the per-level sums, and
/// model_cost_all_levels' result vector with its per-level layer lists)
/// hoisted into a caller-owned object. A model-memo miss uses the lanes
/// alone: it copies each level's totals from the sum lanes into the new
/// entry's CostColumns and never touches the result, and it writes
/// no per-layer prefixes (CostColumns::layer_prefixes builds those on
/// first use, with a scratch of its own). A CostTable build uses ONE of
/// these across its (task x sub-accelerator) lookups: the caller's when it
/// passes one (SweepEngine keeps one per worker, so a worker's table
/// builds share it), else one the constructor owns. After the first call
/// at the largest (levels, shape classes, layers) shape, subsequent calls
/// perform zero heap allocations in the scratch (test-enforced with a
/// counting allocator probe). The object is opaque — only
/// AnalyticalCostModel reads or writes it — and single-threaded: share one
/// per thread, never across threads.
class AllLevelsScratch {
 public:
  AllLevelsScratch() = default;
  AllLevelsScratch(const AllLevelsScratch&) = delete;
  AllLevelsScratch& operator=(const AllLevelsScratch&) = delete;

 private:
  friend class AnalyticalCostModel;

  /// The level-invariant part of one layer's cost: everything that does not
  /// depend on the clock or the per-cycle bandwidths. The lane kernel turns
  /// one core into a LayerCost per level lane.
  struct LayerCostCore {
    bool vector_op = false;
    SpatialMapping mapping;
    double compute_cycles = 0.0;
    double noc_bytes = 0.0;  ///< Numerator of noc_cycles (SRAM<->PE bytes).
    double sram_traffic_bytes = 0.0;
    double dram_traffic_bytes = 0.0;
    double macs = 0.0;        ///< MACs (or vector ops); 0-util for vectors.
    /// The layer's weight in the MAC-weighted average utilization: its
    /// MACs, or 0 for a vector op, whose utilization is left out.
    double util_weight = 0.0;
    double dynamic_pj = 0.0;  ///< Switching energy at the nominal voltage.
  };

  /// Sizes the operating-point lanes for `num_levels` lanes, and the cores
  /// and output lanes for `num_classes` shape classes of `num_levels` lanes
  /// each, retaining capacity from prior calls.
  void ensure_lanes(std::size_t num_levels, std::size_t num_classes);
  /// Sizes the result to `num_levels` ModelCosts with room for `num_layers`
  /// layers each, retaining capacity; zeroes and clears it in place.
  void reset_result(std::size_t num_levels, std::size_t num_layers);

  /// SoA per-lane operating point: clock and per-cycle bandwidths.
  std::vector<double> clock_ghz;
  std::vector<double> noc_bpc;
  std::vector<double> offchip_bpc;
  std::vector<double> vr;  ///< voltage_v / hw::kNominalVoltageV per lane.

  /// Per shape class, the core every layer of the class shares.
  std::vector<LayerCostCore> cores;

  /// Per shape class per lane, the lane kernel's outputs for the class's
  /// layers; class c's lanes sit at [c * num_levels, (c + 1) * num_levels).
  /// The walk fills a class's lanes at its first layer; every layer of the
  /// class is then read from them.
  std::vector<double> noc_cycles;
  std::vector<double> dram_cycles;
  std::vector<double> total_cycles;
  std::vector<double> latency_ms;
  std::vector<double> utilization;
  std::vector<double> static_mj;
  std::vector<double> energy_mj;

  /// Per lane, compute_columns' lane-pass totals: the layers' latency,
  /// energy and static energy, each added in layer order from 0.0, and the
  /// MAC-weighted average utilization.
  std::vector<double> sum_latency_ms;
  std::vector<double> sum_energy_mj;
  std::vector<double> sum_static_mj;
  std::vector<double> avg_utilization;

  std::vector<ModelCost> result;  ///< model_cost_all_levels' result.
};

/// MAESTRO-style analytical cost model.
///
/// For each (layer, dataflow, PE count) it derives a greedy spatial mapping,
/// temporal iteration counts with edge effects (ceil divisions), per-level
/// traffic with dataflow-specific reuse, and a roofline latency
/// max(compute, NoC, DRAM). Energy combines MAC, SRAM+NoC, DRAM and static
/// components. See DESIGN.md §2 for the substitution rationale vs. the
/// MAESTRO binary used by the paper's artifact.
class AnalyticalCostModel {
 public:
  explicit AnalyticalCostModel(EnergyParams energy = {});

  /// Copying shares the energy constants but starts a fresh memo cache.
  AnalyticalCostModel(const AnalyticalCostModel& other);
  AnalyticalCostModel& operator=(const AnalyticalCostModel& other);

  /// Greedy spatial unrolling of `layer` under `dataflow` over `num_pes`.
  /// Exposed for tests/ablations. MAC ops only (vector ops have no mapping).
  SpatialMapping spatial_mapping(const Layer& layer, Dataflow dataflow,
                                 std::int64_t num_pes) const;

  /// Cost of one layer at the configured clock and bandwidths, unscaled by
  /// any DVFS ladder (the nominal-clock lane of the level-axis kernel).
  LayerCost layer_cost(const Layer& layer, const SubAccelConfig& accel) const;

  /// Cost of `graph` at the configured clock and bandwidths: the sum of its
  /// layer_cost()s, as one nominal-clock lane of the level-axis kernel.
  ModelCost model_cost(const ModelGraph& graph,
                       const SubAccelConfig& accel) const;

  /// Cost of `graph` on `accel` running at DVFS level `dvfs_level` of
  /// accel.dvfs. Latency follows the shifted clock through the roofline
  /// (compute cycles scale with frequency; NoC/DRAM bandwidths are physical
  /// and clock-independent), dynamic energy scales with (V/Vnom)^2 and
  /// static power with V/Vnom, anchored at the global calibration voltage
  /// hw::kNominalVoltageV. For a table whose nominal point sits at the
  /// configured clock and the calibration voltage (hw::default_dvfs_state
  /// does both) the nominal level is bit-identical to model_cost(). This is
  /// level `dvfs_level`'s lane of model_cost_all_levels. Throws
  /// std::out_of_range for an invalid level.
  ModelCost model_cost_at(const ModelGraph& graph, const SubAccelConfig& accel,
                          std::size_t dvfs_level) const;

  /// Level-batched cost kernel: the costs of `graph` on `accel` at EVERY
  /// DVFS level of accel.dvfs (result[l] == model_cost_at(graph, accel, l)).
  /// Walks the layer list ONCE and costs each distinct layer shape once
  /// (ModelGraph::shape_classes): the level-invariant terms of a shape
  /// (spatial mapping, compute cycles, SRAM/NoC/DRAM traffic, dynamic
  /// switching energy) are computed a single time, and only the per-level
  /// tail — the roofline against the shifted clock, the latency-proportional
  /// static energy and the (V/Vnom)^2 voltage scaling — runs across the
  /// level lanes. Layers that repeat a shape reuse its lane values, which
  /// are bit for bit what their own walk would give. CostTable builds run
  /// the same walk through cached_cost_columns, so a five-level ladder pays
  /// one layer walk per (task, sub-accelerator), not five.
  std::vector<ModelCost> model_cost_all_levels(
      const ModelGraph& graph, const SubAccelConfig& accel) const;

  /// Scratch-reusing variant of model_cost_all_levels: writes the result
  /// into `scratch` and returns a reference into it (valid until the next
  /// call with the same scratch). Bit-identical to the value-returning
  /// overload; the only difference is that a warmed scratch makes the call
  /// allocation-free.
  const std::vector<ModelCost>& model_cost_all_levels(
      const ModelGraph& graph, const SubAccelConfig& accel,
      AllLevelsScratch& scratch) const;

  /// Memoized cost columns of `graph` on `accel`: model_cost_all_levels
  /// reduced to what a CostTable reads, cached per (layer shapes x
  /// sub-accel config x DVFS ladder), so repeated (model, sub-accelerator)
  /// pairs across sweep points skip the layer walk entirely (CostTable
  /// builds call this). A miss runs the same layer walk as
  /// model_cost_all_levels, then sums each level's totals in one lane pass
  /// over the layers, adding the same lane values in the same order as the
  /// all-levels result's totals, so every bit equals theirs. It builds no
  /// per-layer LayerCost lists and no per-layer prefixes
  /// (CostColumns::layer_prefixes builds those on first use). The returned
  /// columns are shared — concurrent builds of identical designs read one
  /// cached copy — and stay valid, prefixes included, after the memo is
  /// cleared or this model is destroyed. A hit allocates nothing: the
  /// lookup hashes graph.structure_hash() with the config, and a hit is
  /// confirmed by comparing the entry's config with `accel` in place and
  /// its GraphKey with `graph` (GraphKey::matches: by identity when `graph`
  /// keeps that key object, else in place) — together the full key, never
  /// the hash alone, so a collision can not silently alias two models. A miss's entry points at the key the model interns
  /// for graph.structure_hash() — `graph`'s own key object when it is the
  /// first to miss with that hash — only after that key matches `graph`; a
  /// graph whose hash collides with another's keeps its own key. `scratch`,
  /// when given, supplies the walk's lanes on a memo miss (hits never
  /// touch it) — the CostTable build loop passes its own. Throws
  /// std::invalid_argument for an invalid config.
  std::shared_ptr<const CostColumns> cached_cost_columns(
      const ModelGraph& graph, const SubAccelConfig& accel,
      AllLevelsScratch* scratch = nullptr) const;

  /// Idle power (mW) of `accel` parked at DVFS level `dvfs_level`:
  /// DvfsState::idle_mw scaled by V/Vnom at that level (leakage ~ V, same
  /// relation the static term uses), anchored at the global calibration
  /// voltage like every other energy quantity. 0 whenever the hardware
  /// declares no idle-power term. Throws std::out_of_range for an invalid
  /// level.
  double idle_power_mw(const SubAccelConfig& accel,
                       std::size_t dvfs_level) const;

  const EnergyParams& energy_params() const { return energy_; }

  /// Fixed per-layer control/pipeline-fill overhead in cycles.
  static constexpr double kLayerOverheadCycles = 500.0;

  /// Vector ops run on the PE array as SIMD lanes at reduced efficiency.
  static constexpr double kVectorOpEfficiency = 0.25;

  /// Exact hit/miss counters, entry count, prefix builds and shared graph
  /// keys of the model-level memo (distinct (graph, sub-accel config) pairs
  /// evaluated through cached_cost_columns).
  MemoStats model_memo_stats() const;
  /// Empties the memo and its shared graph keys. Columns handed out before
  /// keep their entries, keys included.
  void clear_model_memo() const;

 private:
  using LayerCostCore = AllLevelsScratch::LayerCostCore;
  LayerCostCore mac_layer_core(const Layer& layer,
                               const SubAccelConfig& accel) const;
  LayerCostCore vector_layer_core(const Layer& layer,
                                  const SubAccelConfig& accel) const;
  LayerCostCore layer_core(const Layer& layer,
                           const SubAccelConfig& accel) const;

  /// The one layer walk. Loads one lane of `scratch` per operating point
  /// in `ops[0, num_lanes)` — or a single lane at the configured clock and
  /// unit voltage ratio when `ops` is null — then walks `graph`'s layers
  /// once, in order. At the first layer of each shape class it computes the
  /// class's core and runs the per-level tail across every lane into the
  /// class's lanes, which start at index class * num_lanes of each output
  /// lane vector.
  void walk_levels(const ModelGraph& graph, const SubAccelConfig& accel,
                   const hw::DvfsOperatingPoint* ops, std::size_t num_lanes,
                   AllLevelsScratch& scratch) const;

  /// Lanes [first, first + Width) of compute_columns' lane pass: over the
  /// layers in order, with the accumulators in locals, sums each lane's
  /// latency, energy, static energy and MAC-weighted utilization from 0.0
  /// into the scratch's sum lanes. With `prefixes` (sized for
  /// CostColumns::prefix_index) it also stores every layer's running sums.
  template <std::size_t Width>
  static void sum_lane_block(const ModelGraph& graph, std::size_t num_lanes,
                             std::size_t first, AllLevelsScratch& scratch,
                             LayerPrefixes* prefixes);

  /// The layer walk reduced to one ModelCost per lane: scratch.result[l]
  /// holds lane l's LayerCosts and their layer-order totals.
  void compute_all_levels(const ModelGraph& graph,
                          const SubAccelConfig& accel,
                          const hw::DvfsOperatingPoint* ops,
                          std::size_t num_lanes,
                          AllLevelsScratch& scratch) const;

  /// The layer walk over `graph` at every DVFS level of `accel`, as cost
  /// columns read it, then the lane pass: one reduction over the layers
  /// that sums a block of four lanes at a time (then a 1-3 lane tail) in
  /// registers. On return the scratch's sum lanes hold each level's totals.
  /// With `prefixes`, the pass also stores every level's running sums, in
  /// CostColumns::prefix_index order. A memo miss passes none; the first
  /// CostColumns::layer_prefixes call re-runs the walk with them.
  void compute_columns(const ModelGraph& graph, const SubAccelConfig& accel,
                       AllLevelsScratch& scratch,
                       LayerPrefixes* prefixes) const;

  /// A one-lane call of compute_all_levels on a fresh scratch.
  ModelCost one_lane(const ModelGraph& graph, const SubAccelConfig& accel,
                     const hw::DvfsOperatingPoint* op) const;

  /// DRAM traffic with SRAM-capacity-driven re-fetch (choose the cheaper of
  /// re-streaming inputs per weight tile or weights per input tile).
  double dram_traffic(const Layer& layer, const SubAccelConfig& accel) const;

  /// The key a miss's entry of `graph` points at: the key the model interns
  /// for graph.structure_hash() (`graph`'s own key object when there is
  /// none yet), once it matches `graph`; `graph`'s own key when it does
  /// not, so a hash collision never aliases.
  std::shared_ptr<const GraphKey> shared_graph_key(
      const ModelGraph& graph) const;

  /// One model-level memo entry: cost columns that carry their full key —
  /// the config and a shared GraphKey — and the energy constants they were
  /// computed with, from which they build their prefixes (defined in
  /// cost_model.cpp).
  struct MemoEntry;

  /// One stripe of the model-level memo: the entries whose key hash picks
  /// it, behind a mutex of its own, and the exact hit and miss counts of
  /// the lookups it served. Stripes sit on cache lines of their own, so
  /// lookups in different stripes share neither a lock nor a line.
  struct alignas(64) MemoStripe {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<const MemoEntry>>
        entries;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  EnergyParams energy_;
  /// The model-level memo: 16 stripes, of which the key hash picks one. A
  /// stripe's lock covers only the hash lookup or the insert; the full key
  /// comparison that confirms a hit and the computation of a miss run
  /// outside it. A racing duplicate computation is harmless (both threads
  /// computed the same value, the first insert wins); a different key with
  /// the same hash is caught by the comparison and left uncached.
  mutable std::array<MemoStripe, 16> memo_;
  /// One GraphKey per structure hash, behind a mutex that only misses take:
  /// the key object of the first graph that missed with the hash, which
  /// ModelGraph::add() never writes once the memo holds it. A design
  /// sweep's ~1,100 entries share the zoo graphs' own 11 keys instead of
  /// each copying ~3 KB of layer shapes, and their hits match by identity.
  mutable std::mutex graph_keys_mutex_;
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const GraphKey>>
      graph_keys_;
};

}  // namespace xrbench::costmodel
