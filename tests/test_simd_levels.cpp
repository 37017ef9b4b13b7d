// The level-axis lane kernel's contracts: every AnalyticalCostModel cost —
// layer_cost, model_cost, model_cost_at and model_cost_all_levels — must be
// BIT-identical to the test-only scalar reference walk (layer by layer,
// across the model zoo, the default five-level ladder AND awkward level
// counts), and so must the model memo's cost columns; scratch reuse must be
// invisible to results, a warmed scratch must make the kernel
// allocation-free and a model-memo hit must allocate nothing
// (counting-probe-enforced), and the bits of the cost model and of its
// cost columns must match committed golden digests.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "alloc_probe.h"
#include "cost_reference.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "hw/dvfs.h"
#include "models/zoo.h"
#include "runtime/cost_table.h"

namespace xrbench {
namespace {

using costmodel::reference::expect_layer_cost_eq;
using costmodel::reference::expect_model_cost_eq;
using costmodel::reference::ladder_with_levels;

costmodel::SubAccelConfig accel_with_levels(costmodel::Dataflow df,
                                            std::int64_t pes, std::size_t k) {
  costmodel::SubAccelConfig a;
  a.id = "simd-test";
  a.dataflow = df;
  a.num_pes = pes;
  a.dvfs = ladder_with_levels(k, a.clock_ghz);
  return a;
}

/// The ladder shapes the cost-column tests cover on `df` at 4096 PEs: no
/// ladder, the default five-point ladder, the 1/2/3/6/7-level ladders, and
/// the 3-level ladder with its nominal point lifted off the calibration
/// voltage.
std::vector<costmodel::SubAccelConfig> column_configs(costmodel::Dataflow df) {
  std::vector<costmodel::SubAccelConfig> accels;
  accels.push_back(accel_with_levels(df, 4096, 1));
  accels.back().dvfs = hw::DvfsState{};
  accels.push_back(accels.back());
  accels.back().dvfs = hw::default_dvfs_state(accels.back().clock_ghz);
  for (std::size_t k : {1u, 2u, 3u, 6u, 7u}) {
    accels.push_back(accel_with_levels(df, 4096, k));
  }
  accels.push_back(accel_with_levels(df, 4096, 3));
  accels.back().dvfs.levels.back().voltage_v = 1.1 * hw::kNominalVoltageV;
  return accels;
}

constexpr costmodel::Dataflow kDataflows[] = {
    costmodel::Dataflow::kWS, costmodel::Dataflow::kOS,
    costmodel::Dataflow::kRS};

/// Every cost entry point on `a` against the reference walk: all levels,
/// each level's model_cost_at, and the nominal-clock model_cost and
/// layer_cost.
void expect_matches_reference(const costmodel::AnalyticalCostModel& cm,
                              const costmodel::ModelGraph& graph,
                              const costmodel::SubAccelConfig& a) {
  const auto expected = costmodel::reference::all_levels(cm, graph, a);
  const auto all = cm.model_cost_all_levels(graph, a);
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t lvl = 0; lvl < expected.size(); ++lvl) {
    SCOPED_TRACE("level " + std::to_string(lvl));
    expect_model_cost_eq(all[lvl], expected[lvl]);
    expect_model_cost_eq(cm.model_cost_at(graph, a, lvl), expected[lvl]);
  }
  const auto nominal = costmodel::reference::walk(cm, graph, a, nullptr);
  expect_model_cost_eq(cm.model_cost(graph, a), nominal);
  for (std::size_t i = 0; i < graph.num_layers(); ++i) {
    expect_layer_cost_eq(cm.layer_cost(graph.layers()[i], a),
                         nominal.layers[i]);
  }
}

TEST(SimdLevels, BitIdenticalToReferenceAcrossZooAndDefaultLadder) {
  // The kernel contract on the real five-level ladder, for every entry
  // point: the lane kernel changes the instruction sequence, never a
  // single result bit.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (const auto& sa : sys.sub_accels) {
    ASSERT_GT(sa.dvfs.levels.size(), 1u);
    for (models::TaskId t : models::all_tasks()) {
      SCOPED_TRACE("task " + std::string(models::task_code(t)) + " on " +
                   sa.id);
      expect_matches_reference(cm, models::model_graph(t), sa);
    }
  }
}

TEST(SimdLevels, BitIdenticalOnAwkwardLevelCounts) {
  // 1, 2, 3, 6 and 7 levels are not multiples of the vector width, so the
  // kernel's scalar epilogue carries some of the lanes. The last ladder
  // also lifts its nominal point off the calibration voltage, where
  // layer_cost and model_cost (unit voltage ratio) part from model_cost_at.
  costmodel::AnalyticalCostModel cm;
  std::vector<costmodel::SubAccelConfig> accels;
  for (std::size_t k : {1u, 2u, 3u, 6u, 7u}) {
    accels.push_back(accel_with_levels(costmodel::Dataflow::kWS, 4096, k));
  }
  accels.push_back(accels[2]);
  accels.back().dvfs.levels.back().voltage_v = 1.1 * hw::kNominalVoltageV;
  for (const auto& a : accels) {
    SCOPED_TRACE("levels " + std::to_string(a.dvfs.levels.size()));
    ASSERT_TRUE(a.valid());
    expect_matches_reference(cm, models::model_graph(models::TaskId::kHT), a);
  }
}

TEST(SimdLevels, ScratchReuseBitIdenticalAcrossShapeChanges) {
  // One scratch driven through shrinking and growing (levels, layers)
  // shapes must keep producing exactly what a fresh evaluation produces —
  // stale lane or layer-list contents must never leak into a result.
  costmodel::AnalyticalCostModel cm;
  costmodel::AllLevelsScratch scratch;
  for (std::size_t k : {5u, 1u, 7u, 2u}) {
    for (models::TaskId t : {models::TaskId::kHT, models::TaskId::kES}) {
      SCOPED_TRACE("levels " + std::to_string(k) + " task " +
                   std::string(models::task_code(t)));
      const auto a = accel_with_levels(costmodel::Dataflow::kOS, 2048, k);
      const auto& graph = models::model_graph(t);
      const auto& reused = cm.model_cost_all_levels(graph, a, scratch);
      const auto fresh = cm.model_cost_all_levels(graph, a);
      ASSERT_EQ(reused.size(), fresh.size());
      for (std::size_t lvl = 0; lvl < fresh.size(); ++lvl) {
        expect_model_cost_eq(reused[lvl], fresh[lvl]);
      }
    }
  }
}

TEST(SimdLevels, WarmedScratchIsAllocationFree) {
  // The heap-churn satellite: after one warm-up call at the same shape, the
  // scratch-reusing kernel must not allocate at all — the SoA lanes, the
  // accumulators and every per-level layer list retain their capacity.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  const auto& sa = sys.sub_accels[0];
  const auto& graph = models::model_graph(models::TaskId::kHT);
  costmodel::AllLevelsScratch scratch;
  cm.model_cost_all_levels(graph, sa, scratch);  // warm-up sizes everything

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto& result = cm.model_cost_all_levels(graph, sa, scratch);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state model_cost_all_levels allocated";
  EXPECT_EQ(result.size(), sa.dvfs.num_levels());
}

TEST(SimdLevels, ModelMemoHitIsAllocationFree) {
  // A memo hit hashes the graph's stored structure hash with the config and
  // confirms the entry by comparing layer shapes in place: no key is built,
  // so a warm CostTable build allocates only the table itself.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  const auto& sa = sys.sub_accels[0];
  const auto& graph = models::model_graph(models::TaskId::kHT);
  const auto first = cm.cached_cost_columns(graph, sa);  // the miss

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto hit = cm.cached_cost_columns(graph, sa);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "a model-memo hit allocated";
  EXPECT_EQ(hit.get(), first.get());
  EXPECT_EQ(cm.model_memo_stats().hits, 1u);
}

TEST(SimdLevels, ModelMemoMissBuildsNoLayerLists) {
  // A memo miss writes its running sums straight into the new entry's
  // columns and never materializes per-level LayerCost lists, so its
  // allocation count does not grow with the ladder: a list per level would
  // add one allocation per level.
  const auto& graph = models::model_graph(models::TaskId::kHT);
  std::vector<std::uint64_t> allocations;
  for (std::size_t k : {1u, 7u}) {
    const costmodel::AnalyticalCostModel cm;
    const auto a = accel_with_levels(costmodel::Dataflow::kWS, 4096, k);
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const auto columns = cm.cached_cost_columns(graph, a);
    allocations.push_back(g_alloc_count.load(std::memory_order_relaxed) -
                          before);
    EXPECT_EQ(columns->levels.size(), k);
  }
  EXPECT_EQ(allocations[0], allocations[1]);
}

TEST(SimdLevels, CostTableBitIdenticalToReference) {
  // A CostTable built through the memoized lane kernel equals the
  // reference walk cell by cell and layer prefix by layer prefix (prefixes
  // summed left to right, the order the table uses), and completed_layers
  // lands exactly on every layer boundary.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 8192));
  const costmodel::AnalyticalCostModel cm;
  const runtime::CostTable table(sys, cm);
  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    for (std::size_t sa = 0; sa < sys.sub_accels.size(); ++sa) {
      const auto expected =
          costmodel::reference::all_levels(cm, graph, sys.sub_accels[sa]);
      for (std::size_t lvl = 0; lvl < expected.size(); ++lvl) {
        const auto& mc = expected[lvl];
        const auto& cell = table.cost(t, sa, lvl);
        EXPECT_EQ(cell.latency_ms, mc.latency_ms);
        EXPECT_EQ(cell.energy_mj, mc.energy_mj);
        EXPECT_EQ(cell.static_energy_mj, mc.static_energy_mj);
        EXPECT_EQ(cell.avg_utilization, mc.avg_utilization);
        double lat = 0.0, energy = 0.0, stat = 0.0;
        for (std::size_t k = 0; k <= mc.layers.size(); ++k) {
          EXPECT_EQ(table.layer_latency_prefix_ms(t, sa, lvl, k), lat);
          EXPECT_EQ(table.layer_energy_prefix_mj(t, sa, lvl, k), energy);
          EXPECT_EQ(table.layer_static_prefix_mj(t, sa, lvl, k), stat);
          // Running exactly to boundary k completes k layers; a resume at
          // k that has not run yet has completed none beyond it.
          EXPECT_EQ(table.completed_layers(t, sa, lvl, 0, lat), k);
          EXPECT_EQ(table.completed_layers(t, sa, lvl, k, 0.0), k);
          if (k < mc.layers.size()) {
            lat += mc.layers[k].latency_ms;
            energy += mc.layers[k].energy_mj;
            stat += mc.layers[k].static_energy_mj;
          }
        }
      }
    }
  }
}

TEST(SimdLevels, CostColumnsBitIdenticalToReference) {
  // The model memo's cost columns, as a memo miss computes them, against
  // the reference walk: every zoo model on every dataflow and ladder shape,
  // level totals and layer prefixes alike.
  const costmodel::AnalyticalCostModel cm;
  for (costmodel::Dataflow df : kDataflows) {
    for (const auto& a : column_configs(df)) {
      ASSERT_TRUE(a.valid());
      for (models::TaskId t : models::all_tasks()) {
        SCOPED_TRACE(std::string(costmodel::dataflow_name(df)) + " levels " +
                     std::to_string(a.dvfs.levels.size()) + " task " +
                     std::string(models::task_code(t)));
        const auto& graph = models::model_graph(t);
        costmodel::reference::expect_columns_eq(
            *cm.cached_cost_columns(graph, a),
            costmodel::reference::all_levels(cm, graph, a));
      }
    }
  }
}

/// 64-bit FNV-1a over 8-byte words: the bit pattern of every double and
/// the value of every integer of every ModelCost and LayerCost, or of every
/// CostColumns field, in a fixed order.
class Digest {
 public:
  void add(const costmodel::ModelCost& mc) {
    for (double d : {mc.latency_ms, mc.energy_mj, mc.static_energy_mj,
                     mc.avg_utilization, mc.dram_traffic_bytes}) {
      add(d);
    }
    word(mc.layers.size());
    for (const auto& lc : mc.layers) {
      for (double d : {lc.compute_cycles, lc.noc_cycles, lc.dram_cycles,
                       lc.total_cycles, lc.latency_ms, lc.energy_mj,
                       lc.static_energy_mj, lc.utilization,
                       lc.sram_traffic_bytes, lc.dram_traffic_bytes}) {
        add(d);
      }
      for (std::int64_t p : {lc.mapping.p0, lc.mapping.p1, lc.mapping.p2}) {
        word(static_cast<std::uint64_t>(p));
      }
    }
  }
  void add(const costmodel::CostColumns& c) {
    word(c.num_layers);
    word(c.levels.size());
    for (const auto& t : c.levels) {
      for (double d : {t.latency_ms, t.energy_mj, t.static_energy_mj,
                       t.avg_utilization}) {
        add(d);
      }
    }
    const costmodel::LayerPrefixes& p = c.layer_prefixes();
    for (const auto* prefix :
         {&p.latency_prefix_ms, &p.energy_prefix_mj, &p.static_prefix_mj}) {
      word(prefix->size());
      for (double d : *prefix) add(d);
    }
  }
  /// Every level of `sa` through model_cost_all_levels and model_cost_at,
  /// then the nominal-clock model_cost.
  void add_config(const costmodel::AnalyticalCostModel& cm,
                  const costmodel::ModelGraph& graph,
                  const costmodel::SubAccelConfig& sa) {
    for (const auto& mc : cm.model_cost_all_levels(graph, sa)) add(mc);
    for (std::size_t lvl = 0; lvl < sa.dvfs.num_levels(); ++lvl) {
      add(cm.model_cost_at(graph, sa, lvl));
    }
    add(cm.model_cost(graph, sa));
  }
  std::uint64_t value() const { return h_; }

 private:
  void add(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    word(bits);
  }
  void word(std::uint64_t w) { h_ = (h_ ^ w) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(SimdLevels, CostModelMatchesGoldenDigests) {
  // One digest per task over the 13 Table-5 designs at 4096 PEs, without
  // and with the default DVFS ladder, plus the 1/2/3/6/7-level ladders.
  // The goldens were generated before the lane kernel became the only
  // implementation, while the scalar per-level walk and the vectorized
  // kernel were still proven bit-identical. A change to any cost bit fails
  // here; an intended one regenerates the table and says so.
  const std::pair<const char*, std::uint64_t> golden[] = {
      {"HT", 0xce14db3f539a816bULL}, {"ES", 0x773120c1dca1528bULL},
      {"GE", 0xf872d03748a63a48ULL}, {"KD", 0x5b105ac19f68bcd0ULL},
      {"SR", 0xbe80b45fe35ad72dULL}, {"SS", 0x4b28375c1a91515dULL},
      {"OD", 0x2b2d44deead1d0deULL}, {"AS", 0xb295dbbd1b2489b7ULL},
      {"DE", 0xae07881c15a9f797ULL}, {"DR", 0x7c99976c9a00b565ULL},
      {"PD", 0x24d4c82b7570ed6fULL},
  };
  ASSERT_EQ(std::size(golden), models::kNumTasks);
  const costmodel::AnalyticalCostModel cm;
  for (const auto& [code, expected] : golden) {
    const auto& graph = models::model_graph(models::parse_task_code(code));
    Digest digest;
    for (char id : hw::accelerator_ids()) {
      const auto plain = hw::make_accelerator(id, 4096);
      for (const auto& sys : {plain, hw::with_default_dvfs(plain)}) {
        for (const auto& sa : sys.sub_accels) digest.add_config(cm, graph, sa);
      }
    }
    for (std::size_t k : {1u, 2u, 3u, 6u, 7u}) {
      digest.add_config(cm, graph,
                        accel_with_levels(costmodel::Dataflow::kWS, 4096, k));
    }
    EXPECT_EQ(digest.value(), expected)
        << code << ": got 0x" << std::hex << digest.value();
  }
}

TEST(SimdLevels, CostColumnsMatchGoldenDigests) {
  // One digest per task over every field of the model memo's cost columns,
  // for the 13 Table-5 designs at 4096 PEs without and with the default
  // DVFS ladder and for every column_configs() shape on each dataflow. The
  // goldens were generated while a memo miss still reduced the columns
  // from the kernel's per-layer LayerCost lists, before it wrote them
  // inside the layer walk. A change to any column bit fails here; an
  // intended one regenerates the table and says so.
  const std::pair<const char*, std::uint64_t> golden[] = {
      {"HT", 0xe940d6c036bd61e5ULL}, {"ES", 0xa8c9b2b30c789a67ULL},
      {"GE", 0x4502dcc17ab05634ULL}, {"KD", 0x68101a6980c8d68eULL},
      {"SR", 0xca72531b57d14df6ULL}, {"SS", 0xd0b1e66eaf1a93a0ULL},
      {"OD", 0xf4b771c84b2e54c4ULL}, {"AS", 0x98067a46924dfe57ULL},
      {"DE", 0xb30287cb681b649aULL}, {"DR", 0xa98d497859ddaa06ULL},
      {"PD", 0x32031638b4fe4855ULL},
  };
  ASSERT_EQ(std::size(golden), models::kNumTasks);
  for (const auto& [code, expected] : golden) {
    const auto& graph = models::model_graph(models::parse_task_code(code));
    const costmodel::AnalyticalCostModel cm;
    Digest digest;
    for (char id : hw::accelerator_ids()) {
      const auto plain = hw::make_accelerator(id, 4096);
      for (const auto& sys : {plain, hw::with_default_dvfs(plain)}) {
        for (const auto& sa : sys.sub_accels) {
          digest.add(*cm.cached_cost_columns(graph, sa));
        }
      }
    }
    for (costmodel::Dataflow df : kDataflows) {
      for (const auto& a : column_configs(df)) {
        digest.add(*cm.cached_cost_columns(graph, a));
      }
    }
    EXPECT_EQ(digest.value(), expected)
        << code << ": got 0x" << std::hex << digest.value();
  }
}

}  // namespace
}  // namespace xrbench
