// The raw-speed ladder's correctness contracts: the level-batched
// all-levels kernel must be bit-identical to the per-level path, the
// model-level memo must count hits and misses exactly (also under
// concurrent lookups), key entries by layer shapes and config alone, and
// hand out cost columns that outlive it and build their per-layer
// prefixes once, on first read only, and a warm (memoized) full-suite
// sweep must reproduce the cold run bit-exactly at any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "core/sweep.h"
#include "cost_reference.h"
#include "costmodel/cost_model.h"
#include "costmodel/hash.h"
#include "hw/accelerator.h"
#include "models/zoo.h"
#include "runtime/cost_table.h"

namespace xrbench {
namespace {

costmodel::SubAccelConfig accel(costmodel::Dataflow df, std::int64_t pes) {
  costmodel::SubAccelConfig a;
  a.id = "test";
  a.dataflow = df;
  a.num_pes = pes;
  return a;
}

using costmodel::reference::expect_model_cost_eq;

TEST(AllLevels, BitIdenticalToPerLevelPathOnDvfsLadder) {
  // The tentpole contract: one batched layer walk == num_levels separate
  // walks, bit for bit, across every zoo model and a DVFS-laddered design.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (const auto& sa : sys.sub_accels) {
    ASSERT_GT(sa.dvfs.levels.size(), 1u);
    for (models::TaskId t : models::all_tasks()) {
      const auto& graph = models::model_graph(t);
      const auto all = cm.model_cost_all_levels(graph, sa);
      ASSERT_EQ(all.size(), sa.dvfs.num_levels());
      for (std::size_t lvl = 0; lvl < all.size(); ++lvl) {
        SCOPED_TRACE("task " + std::string(models::task_code(t)) +
                     " level " + std::to_string(lvl));
        expect_model_cost_eq(all[lvl], cm.model_cost_at(graph, sa, lvl));
      }
    }
  }
}

TEST(AllLevels, EmptyLadderYieldsSingleNominalLevel) {
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kOS, 2048);
  const auto& graph = models::model_graph(models::TaskId::kHT);
  const auto all = cm.model_cost_all_levels(graph, a);
  ASSERT_EQ(all.size(), 1u);
  expect_model_cost_eq(all[0], cm.model_cost(graph, a));
  expect_model_cost_eq(all[0], cm.model_cost_at(graph, a, 0));
}

TEST(AllLevels, RejectsInvalidConfig) {
  costmodel::AnalyticalCostModel cm;
  auto a = accel(costmodel::Dataflow::kWS, 4096);
  a.num_pes = 0;
  const auto& graph = models::model_graph(models::TaskId::kHT);
  EXPECT_THROW(cm.model_cost_all_levels(graph, a), std::invalid_argument);
}

TEST(AllLevels, CostTableBuildsBitIdenticalToPerLevelPath) {
  // CostTable builds through the model memo's cost columns; every cell
  // must match the per-level reference.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 8192));
  costmodel::AnalyticalCostModel cm;
  const runtime::CostTable table(sys, cm);
  const costmodel::AnalyticalCostModel reference;
  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    for (std::size_t sa = 0; sa < sys.sub_accels.size(); ++sa) {
      for (std::size_t lvl = 0; lvl < sys.sub_accels[sa].dvfs.num_levels();
           ++lvl) {
        const auto mc =
            reference.model_cost_at(graph, sys.sub_accels[sa], lvl);
        const auto& cell = table.cost(t, sa, lvl);
        EXPECT_EQ(cell.latency_ms, mc.latency_ms);
        EXPECT_EQ(cell.energy_mj, mc.energy_mj);
        EXPECT_EQ(cell.static_energy_mj, mc.static_energy_mj);
        EXPECT_EQ(cell.avg_utilization, mc.avg_utilization);
      }
    }
  }
}

TEST(ModelMemo, CountsHitsAndMisses) {
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kWS, 4096);
  const auto& graph = models::model_graph(models::TaskId::kHT);

  EXPECT_EQ(cm.model_memo_stats().entries, 0u);
  const auto first = cm.cached_cost_columns(graph, a);
  auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);

  // Hits share the cached columns, they don't copy them.
  const auto second = cm.cached_cost_columns(graph, a);
  const auto third = cm.cached_cost_columns(graph, a);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(third.get(), first.get());
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.graph_keys, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 3.0);

  // A different config is a distinct entry of the same graph: it shares
  // the graph's key.
  const auto os =
      cm.cached_cost_columns(graph, accel(costmodel::Dataflow::kOS, 4096));
  EXPECT_EQ(&os->graph_key(), &first->graph_key());
  EXPECT_TRUE(os->graph_key().matches(graph));
  s = cm.model_memo_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.graph_keys, 1u);

  cm.clear_model_memo();
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.graph_keys, 0u);
  // Entries handed out before keep their shared key.
  EXPECT_EQ(&os->graph_key(), &first->graph_key());
  EXPECT_TRUE(first->graph_key().matches(graph));
}

TEST(ModelMemo, CountsAreExactUnderConcurrentLookups) {
  // Every lookup is counted exactly: however the threads interleave,
  // hits + misses equals the number of lookups, and racing misses on one
  // key still leave a single shared entry.
  costmodel::AnalyticalCostModel cm;
  const auto& graph = models::model_graph(models::TaskId::kES);
  const auto ws = accel(costmodel::Dataflow::kWS, 4096);
  const auto rs = accel(costmodel::Dataflow::kRS, 2048);
  constexpr int kThreads = 4;
  constexpr int kLookups = 50;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kLookups; ++j) {
        cm.cached_cost_columns(graph, j % 2 == 0 ? ws : rs);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads * kLookups));
  EXPECT_GE(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(cm.cached_cost_columns(graph, ws).get(),
            cm.cached_cost_columns(graph, ws).get());
}

TEST(ModelMemo, CachedValueMatchesUncachedKernel) {
  // The cached columns equal the uncached kernel's result reduced to what
  // a CostTable reads: each level's totals, and running sums of its layers
  // added left to right, which end on the level's totals bit for bit.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('A', 4096));
  const auto& sa = sys.sub_accels[0];
  const auto& graph = models::model_graph(models::TaskId::kES);
  const auto cached = cm.cached_cost_columns(graph, sa);
  ASSERT_EQ(cached->num_layers, graph.num_layers());
  costmodel::reference::expect_columns_eq(
      *cached, cm.model_cost_all_levels(graph, sa));
}

TEST(ModelMemo, LanePassMatchesPerLevelPathAtEveryBlockRemainder) {
  // The lane pass sums four lanes at a time, then a 1-3 lane tail, so
  // ladders of 1-9 levels put lanes in every block width and position.
  // model_cost_at sums one lane alone; every level's totals must equal it
  // bit for bit, and the prefixes must be the running sums of
  // model_cost_all_levels' layers. Besides the zoo, a graph that opens
  // with a vector op and repeats shapes, and one of vector ops alone
  // (no MACs, so an average utilization of 0).
  const costmodel::Layer conv = costmodel::conv2d("conv", 16, 32, 16, 16, 3);
  const costmodel::Layer dw = costmodel::dwconv2d("dw", 32, 16, 16, 3);
  const costmodel::Layer add = costmodel::elementwise("add", 8192);
  const costmodel::Layer pool_layer = costmodel::pool("pool", 32, 8, 8, 2);
  costmodel::ModelGraph mixed("mixed"), vectors("vectors");
  for (const auto& layer : {add, conv, add, dw, pool_layer, conv, add, dw}) {
    mixed.add(layer);
  }
  for (const auto& layer : {add, pool_layer, add}) vectors.add(layer);
  std::vector<const costmodel::ModelGraph*> graphs = {&mixed, &vectors};
  for (models::TaskId t : models::all_tasks()) {
    graphs.push_back(&models::model_graph(t));
  }

  const costmodel::AnalyticalCostModel cm;
  for (std::size_t k = 1; k <= 9; ++k) {
    auto a = accel(costmodel::Dataflow::kWS, 4096);
    a.dvfs = costmodel::reference::ladder_with_levels(k, a.clock_ghz);
    ASSERT_TRUE(a.valid());
    for (const costmodel::ModelGraph* graph : graphs) {
      SCOPED_TRACE(graph->name() + " at " + std::to_string(k) + " levels");
      const auto columns = cm.cached_cost_columns(*graph, a);
      ASSERT_EQ(columns->levels.size(), k);
      for (std::size_t lvl = 0; lvl < k; ++lvl) {
        const auto at = cm.model_cost_at(*graph, a, lvl);
        const auto& totals = columns->levels[lvl];
        EXPECT_EQ(totals.latency_ms, at.latency_ms);
        EXPECT_EQ(totals.energy_mj, at.energy_mj);
        EXPECT_EQ(totals.static_energy_mj, at.static_energy_mj);
        EXPECT_EQ(totals.avg_utilization, at.avg_utilization);
      }
      costmodel::reference::expect_columns_eq(
          *columns, cm.model_cost_all_levels(*graph, a));
    }
  }
  EXPECT_EQ(cm.model_cost(vectors, accel(costmodel::Dataflow::kWS, 4096))
                .avg_utilization,
            0.0);
}

TEST(ModelMemo, EntriesHoldTheGraphsOwnKeyAndAddCopiesIt) {
  // The memo interns a graph's own key object, so lookups with that graph
  // or a copy of it match by identity. add() copies a key that anyone else
  // holds before it writes, so an entry's key never changes.
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kWS, 4096);
  const auto& zoo = models::model_graph(models::TaskId::kHT);
  const auto zoo_entry = cm.cached_cost_columns(zoo, a);
  EXPECT_EQ(&zoo_entry->graph_key(), zoo.key().get());

  // A copy shares the key object: it hits, and no key is added.
  const costmodel::ModelGraph copy = zoo;
  EXPECT_EQ(copy.key(), zoo.key());
  EXPECT_EQ(cm.cached_cost_columns(copy, a).get(), zoo_entry.get());
  auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.graph_keys, 1u);

  // A graph of other shapes that the memo has keyed an entry on.
  costmodel::ModelGraph graph("graph");
  graph.add(costmodel::conv2d("conv", 4, 8, 8, 8, 3));
  graph.add(costmodel::elementwise("add", 512));
  const costmodel::ModelGraph pristine = graph;
  const auto entry = cm.cached_cost_columns(graph, a);
  const costmodel::GraphKey* key = &entry->graph_key();
  EXPECT_EQ(key, graph.key().get());
  EXPECT_EQ(pristine.key().get(), key);

  // add() leaves the entry's key intact and gives the graph a new one.
  graph.add(costmodel::conv2d("conv", 4, 8, 8, 8, 3));
  EXPECT_NE(graph.key().get(), key);
  EXPECT_EQ(&entry->graph_key(), key);
  EXPECT_EQ(key->shape_classes, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(graph.shape_classes(), (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_TRUE(key->matches(pristine));
  EXPECT_FALSE(key->matches(graph));
  EXPECT_EQ(cm.cached_cost_columns(pristine, a).get(), entry.get());
  const auto grown = cm.cached_cost_columns(graph, a);
  EXPECT_NE(grown.get(), entry.get());
  EXPECT_EQ(&grown->graph_key(), graph.key().get());
  EXPECT_EQ(grown->num_layers, 3u);
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.graph_keys, 3u);
  costmodel::reference::expect_columns_eq(
      *entry, cm.model_cost_all_levels(pristine, a));
  costmodel::reference::expect_columns_eq(
      *grown, cm.model_cost_all_levels(graph, a));
}

TEST(ModelMemo, KeyIsLayerShapesNotNames) {
  // Two graphs with identical layers but different names share one entry;
  // one changed dimension or one extra layer is a different key.
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kWS, 4096);
  const auto& zoo = models::model_graph(models::TaskId::kHT);
  costmodel::ModelGraph renamed("renamed"), widened("widened"),
      longer("longer");
  for (std::size_t i = 0; i < zoo.num_layers(); ++i) {
    costmodel::Layer layer = zoo.layers()[i];
    layer.name += "-copy";
    renamed.add(layer);
    longer.add(layer);
    if (i == zoo.num_layers() / 2) layer.k += 1;
    widened.add(layer);
  }
  longer.add(zoo.layers().back());
  EXPECT_EQ(renamed.structure_hash(), zoo.structure_hash());

  const auto first = cm.cached_cost_columns(zoo, a);
  EXPECT_EQ(cm.cached_cost_columns(renamed, a).get(), first.get());
  auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);

  const auto wide = cm.cached_cost_columns(widened, a);
  const auto more = cm.cached_cost_columns(longer, a);
  EXPECT_NE(wide.get(), first.get());
  EXPECT_NE(more.get(), first.get());
  EXPECT_EQ(more->num_layers, zoo.num_layers() + 1);
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.graph_keys, 3u);

  // The renamed graph's entry on another config shares the zoo graph's
  // key; the other graphs have keys of their own.
  const auto renamed_os =
      cm.cached_cost_columns(renamed, accel(costmodel::Dataflow::kOS, 4096));
  EXPECT_EQ(&renamed_os->graph_key(), &first->graph_key());
  EXPECT_NE(&wide->graph_key(), &first->graph_key());
  EXPECT_NE(&more->graph_key(), &first->graph_key());
  EXPECT_EQ(cm.model_memo_stats().graph_keys, 3u);
}

TEST(ModelMemo, HashCollisionIsCaughtByKeyComparison) {
  // Two graphs with equal structure hashes share one memo index, so only
  // the full-key comparison tells them apart. hash_combine is
  // (seed ^ v) * odd, invertible mod 2^64: solve for the elems of the
  // forged graph's trailing vector op that lands its hash on `graph`'s,
  // retrying on the leading conv's output channels until the solution is
  // a valid positive value. Both graphs have shape classes {0, 1} and the
  // same layer count, so only their shapes differ.
  costmodel::ModelGraph graph("graph");
  graph.add(costmodel::conv2d("conv", 4, 8, 8, 8, 3, 1));
  graph.add(costmodel::elementwise("add", 512));

  const std::uint64_t odd = costmodel::hash_combine(1, 0);  // (1 ^ 0) * odd
  std::uint64_t inverse = odd;  // each Newton step doubles the exact bits
  for (int i = 0; i < 5; ++i) inverse *= 2 - odd * inverse;
  ASSERT_EQ(odd * inverse, 1u);

  costmodel::ModelGraph forged("forged");
  for (std::int64_t k = 9; forged.empty(); ++k) {
    ASSERT_LT(k, 200) << "no positive elems solution";
    const costmodel::Layer conv = costmodel::conv2d("conv", 4, k, 8, 8, 3, 1);
    costmodel::Layer add = costmodel::elementwise("add", 1);
    std::uint64_t h = 0;
    for (std::int64_t v : conv.shape()) {
      h = costmodel::hash_combine(h, static_cast<std::uint64_t>(v));
    }
    const auto shape = add.shape();
    for (std::size_t f = 0; f + 1 < shape.size(); ++f) {
      h = costmodel::hash_combine(h, static_cast<std::uint64_t>(shape[f]));
    }
    add.elems =
        static_cast<std::int64_t>((graph.structure_hash() * inverse) ^ h);
    if (add.elems <= 0) continue;
    forged.add(conv);
    forged.add(add);
  }
  ASSERT_EQ(forged.structure_hash(), graph.structure_hash());
  ASSERT_EQ(forged.shape_classes(), graph.shape_classes());
  ASSERT_NE(forged.class_shapes(), graph.class_shapes());

  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('A', 4096));
  const auto& sa = sys.sub_accels[0];
  const auto first = cm.cached_cost_columns(graph, sa);
  const auto collided = cm.cached_cost_columns(forged, sa);
  EXPECT_NE(collided.get(), first.get());
  auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 1u);  // the collided key is left uncached
  // The forged graph's entry does not share the other graph's key: the
  // shared key failed its in-place comparison, so the entry keeps its own,
  // which is the forged graph's, and only one key is interned.
  EXPECT_NE(&collided->graph_key(), &first->graph_key());
  EXPECT_TRUE(collided->graph_key().matches(forged));
  EXPECT_FALSE(collided->graph_key().matches(graph));
  EXPECT_TRUE(first->graph_key().matches(graph));
  EXPECT_EQ(s.graph_keys, 1u);
  costmodel::reference::expect_columns_eq(
      *first, cm.model_cost_all_levels(graph, sa));
  costmodel::reference::expect_columns_eq(
      *collided, cm.model_cost_all_levels(forged, sa));

  // The cached entry still serves its own key, and only its own key.
  EXPECT_EQ(cm.cached_cost_columns(graph, sa).get(), first.get());
  costmodel::reference::expect_columns_eq(
      *cm.cached_cost_columns(forged, sa),
      cm.model_cost_all_levels(forged, sa));
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 1u);

  // A forged miss on a config the graph has no entry for meets no
  // colliding entry, only the graph's interned key, and must not take it.
  const auto sys_j = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto& sa_j = sys_j.sub_accels[0];
  const auto other = cm.cached_cost_columns(forged, sa_j);
  EXPECT_NE(&other->graph_key(), &first->graph_key());
  EXPECT_TRUE(other->graph_key().matches(forged));
  costmodel::reference::expect_columns_eq(
      *other, cm.model_cost_all_levels(forged, sa_j));
  s = cm.model_memo_stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.graph_keys, 1u);
}

TEST(ModelMemo, CostTableOutlivesMemoAndModel) {
  // Tables share the memo's columns instead of copying them, so a table
  // must stay readable and bit-identical after the memo is cleared and
  // after its cost model is destroyed.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const costmodel::AnalyticalCostModel reference_model;
  const runtime::CostTable reference(sys, reference_model);
  auto cm = std::make_unique<costmodel::AnalyticalCostModel>();
  const runtime::CostTable cleared(sys, *cm);
  cm->clear_model_memo();
  const runtime::CostTable orphaned(sys, *cm);
  cm.reset();
  for (const runtime::CostTable* table : {&cleared, &orphaned}) {
    for (models::TaskId t : models::all_tasks()) {
      ASSERT_EQ(table->num_layers(t), reference.num_layers(t));
      for (std::size_t sa = 0; sa < table->num_sub_accels(); ++sa) {
        for (std::size_t lvl = 0; lvl < table->num_levels(sa); ++lvl) {
          const auto& cell = table->cost(t, sa, lvl);
          const auto& want = reference.cost(t, sa, lvl);
          EXPECT_EQ(cell.latency_ms, want.latency_ms);
          EXPECT_EQ(cell.energy_mj, want.energy_mj);
          EXPECT_EQ(cell.static_energy_mj, want.static_energy_mj);
          EXPECT_EQ(cell.avg_utilization, want.avg_utilization);
          for (std::size_t k = 0; k <= table->num_layers(t); ++k) {
            EXPECT_EQ(table->layer_latency_prefix_ms(t, sa, lvl, k),
                      reference.layer_latency_prefix_ms(t, sa, lvl, k));
            EXPECT_EQ(table->layer_energy_prefix_mj(t, sa, lvl, k),
                      reference.layer_energy_prefix_mj(t, sa, lvl, k));
            EXPECT_EQ(table->layer_static_prefix_mj(t, sa, lvl, k),
                      reference.layer_static_prefix_mj(t, sa, lvl, k));
          }
        }
      }
    }
  }
}

TEST(ModelMemo, ConcurrentFirstPrefixReadsBuildEachEntryOnce) {
  // Eight threads read every prefix of one fresh table's columns at once:
  // each sees the reference bits, and each memo entry builds its prefixes
  // exactly once.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const costmodel::AnalyticalCostModel cm;
  const runtime::CostTable table(sys, cm);
  const auto built = cm.model_memo_stats();
  ASSERT_GT(built.entries, 0u);
  ASSERT_EQ(built.prefix_builds, 0u);  // building a table reads none
  std::vector<std::vector<costmodel::ModelCost>> reference;
  for (models::TaskId t : models::all_tasks()) {
    for (const auto& sa : sys.sub_accels) {
      reference.push_back(cm.model_cost_all_levels(models::model_graph(t), sa));
    }
  }

  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      std::size_t r = 0;
      for (models::TaskId t : models::all_tasks()) {
        for (const auto& sa : sys.sub_accels) {
          costmodel::reference::expect_columns_eq(
              *cm.cached_cost_columns(models::model_graph(t), sa),
              reference[r++]);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto read = cm.model_memo_stats();
  EXPECT_EQ(read.entries, built.entries);
  EXPECT_EQ(read.prefix_builds, read.entries);

  // The table reads the same columns: its prefixes end on its totals.
  for (models::TaskId t : models::all_tasks()) {
    for (std::size_t sa = 0; sa < table.num_sub_accels(); ++sa) {
      for (std::size_t lvl = 0; lvl < table.num_levels(sa); ++lvl) {
        const std::size_t n = table.num_layers(t);
        const auto& total = table.cost(t, sa, lvl);
        EXPECT_EQ(table.layer_latency_prefix_ms(t, sa, lvl, n),
                  total.latency_ms);
        EXPECT_EQ(table.layer_energy_prefix_mj(t, sa, lvl, n),
                  total.energy_mj);
        EXPECT_EQ(table.layer_static_prefix_mj(t, sa, lvl, n),
                  total.static_energy_mj);
      }
    }
  }
  EXPECT_EQ(cm.model_memo_stats().prefix_builds, read.prefix_builds);
}

TEST(ModelMemo, ConcurrentColdBuildsShareOneKeyPerGraph) {
  // Eight threads build the tables of the same designs on one cold model
  // at once, each starting from a different design, so the first misses
  // of every graph race to intern its key. Each graph ends with exactly
  // one shared key, every entry of the graph points at it, and every
  // column equals the uncached kernel's.
  std::vector<hw::AcceleratorSystem> systems;
  for (char id : {'A', 'J', 'M'}) {
    systems.push_back(hw::with_default_dvfs(hw::make_accelerator(id, 4096)));
  }
  const costmodel::AnalyticalCostModel cm;
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::vector<std::unique_ptr<runtime::CostTable>>> tables(
      kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (std::size_t k = 0; k < systems.size(); ++k) {
        tables[static_cast<std::size_t>(i)].push_back(
            std::make_unique<runtime::CostTable>(
                systems[(static_cast<std::size_t>(i) + k) % systems.size()],
                cm));
      }
    });
  }
  for (auto& th : threads) th.join();

  const costmodel::AnalyticalCostModel serial;
  for (const auto& sys : systems) {
    const runtime::CostTable table(sys, serial);
  }
  const auto once = serial.model_memo_stats();
  const auto stats = cm.model_memo_stats();
  EXPECT_EQ(stats.graph_keys, models::kNumTasks);
  EXPECT_EQ(stats.entries, once.entries);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * (once.hits + once.misses));
  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    const costmodel::GraphKey* key = nullptr;
    for (const auto& sys : systems) {
      for (const auto& sa : sys.sub_accels) {
        const auto columns = cm.cached_cost_columns(graph, sa);
        if (key == nullptr) key = &columns->graph_key();
        EXPECT_EQ(&columns->graph_key(), key);
        costmodel::reference::expect_columns_eq(
            *columns, cm.model_cost_all_levels(graph, sa));
      }
    }
    ASSERT_NE(key, nullptr);
    EXPECT_TRUE(key->matches(graph));
  }
  EXPECT_EQ(cm.model_memo_stats().graph_keys, models::kNumTasks);
}

TEST(ModelMemo, StripedLookupsStayExactAcrossThreads) {
  // Eight threads look up every (zoo graph, sub-accelerator) pair of three
  // dataflows x four PE counts, each thread in its own shuffled order, on
  // one cold model. The 132 keys spread over all of the memo's stripes.
  // Summed over the stripes, hits + misses must equal the lookups, each
  // pair must hold one entry and each graph one key, and every thread must
  // get the same columns for a pair, equal to the uncached kernel's.
  std::vector<costmodel::SubAccelConfig> configs;
  for (auto df : {costmodel::Dataflow::kWS, costmodel::Dataflow::kOS,
                  costmodel::Dataflow::kRS}) {
    for (std::int64_t pes : {256, 1024, 2048, 4096}) {
      configs.push_back(accel(df, pes));
    }
  }
  struct Pair {
    const costmodel::ModelGraph* graph;
    const costmodel::SubAccelConfig* config;
  };
  std::vector<Pair> pairs;
  for (models::TaskId t : models::all_tasks()) {
    for (const auto& config : configs) {
      pairs.push_back({&models::model_graph(t), &config});
    }
  }
  const costmodel::AnalyticalCostModel cm;
  constexpr std::size_t kThreads = 8;
  using Columns = std::shared_ptr<const costmodel::CostColumns>;
  std::vector<std::vector<Columns>> got(kThreads,
                                        std::vector<Columns>(pairs.size()));
  std::atomic<std::size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::vector<std::size_t> order(pairs.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), std::mt19937(i));
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (std::size_t p : order) {
        got[i][p] = cm.cached_cost_columns(*pairs[p].graph, *pairs[p].config);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = cm.model_memo_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * pairs.size());
  EXPECT_GE(stats.misses, pairs.size());
  EXPECT_EQ(stats.entries, pairs.size());
  EXPECT_EQ(stats.graph_keys, models::kNumTasks);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto& shared = got[0][p];
    for (std::size_t i = 1; i < kThreads; ++i) {
      EXPECT_EQ(got[i][p].get(), shared.get()) << "pair " << p;
    }
    // Pairs run graph by graph: each shares its graph's first pair's key.
    const auto& first_of_graph = got[0][p / configs.size() * configs.size()];
    EXPECT_EQ(&shared->graph_key(), &first_of_graph->graph_key());
    costmodel::reference::expect_columns_eq(
        *shared, cm.model_cost_all_levels(*pairs[p].graph, *pairs[p].config));
  }
}

TEST(ModelMemo, OnlyCheckpointedRunsBuildPrefixes) {
  // A memo miss writes each level's totals and no per-layer prefixes, so a
  // fault-free sweep builds none. Checkpointed outage kills read them: each
  // entry builds its prefixes at its first read, and a repeated sweep on
  // the same engine reuses them.
  core::HarnessOptions opt;
  opt.run.duration_ms = 300.0;
  opt.dynamic_trials = 1;
  std::vector<core::SweepPoint> points;
  for (char id : {'A', 'J', 'M'}) {
    points.push_back({std::string(1, id),
                      hw::with_default_dvfs(hw::make_accelerator(id, 4096)),
                      opt});
  }
  core::SweepEngine engine(2);
  engine.run_suite_points(points);
  const auto fault_free = engine.model_memo_stats();
  EXPECT_GT(fault_free.entries, 0u);
  EXPECT_EQ(fault_free.prefix_builds, 0u);

  auto checkpointed = points;
  for (auto& point : checkpointed) {
    auto& faults = point.options.run.faults;
    faults.outage_rate_per_s = 3.0;
    faults.outage_ms = 30.0;
    faults.max_retries = 3;
    faults.retry_backoff_ms = 1.0;
    faults.checkpoint = true;
  }
  const auto first = engine.run_suite_points(checkpointed);
  std::int64_t resumes = 0;
  for (const auto& outcome : first) {
    for (const auto& last : outcome.last) resumes += last.resilience.resumes;
  }
  EXPECT_GT(resumes, 0);
  const auto built = engine.model_memo_stats();
  EXPECT_EQ(built.entries, fault_free.entries);
  EXPECT_GT(built.prefix_builds, 0u);
  EXPECT_LE(built.prefix_builds, built.entries);

  const auto second = engine.run_suite_points(checkpointed);
  EXPECT_EQ(engine.model_memo_stats().prefix_builds, built.prefix_builds);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_EQ(second[p].score.overall, first[p].score.overall);
  }
}

TEST(ModelMemo, WarmSweepBitIdenticalToColdAtOneAndFourWorkers) {
  // Memoized (warm) full-suite sweeps must reproduce the cold run's scores
  // bit-exactly, serial and parallel alike.
  core::HarnessOptions opt;
  opt.run.duration_ms = 200.0;
  opt.dynamic_trials = 2;
  std::vector<core::SweepPoint> points;
  for (char id : {'A', 'J'}) {
    points.push_back({std::string(1, id),
                      hw::with_default_dvfs(hw::make_accelerator(id, 4096)),
                      opt});
  }

  core::SweepEngine serial(1);
  const auto cold = serial.run_suite_points(points);
  const auto cold_stats = serial.model_memo_stats();
  EXPECT_GT(cold_stats.entries, 0u);

  // Second pass on the same engine: pure model-memo hits, same scores.
  const auto warm = serial.run_suite_points(points);
  const auto warm_stats = serial.model_memo_stats();
  EXPECT_GT(warm_stats.hits, cold_stats.hits);
  EXPECT_EQ(warm_stats.entries, cold_stats.entries);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t p = 0; p < cold.size(); ++p) {
    EXPECT_EQ(warm[p].score.overall, cold[p].score.overall);
    EXPECT_EQ(warm[p].score.realtime, cold[p].score.realtime);
    EXPECT_EQ(warm[p].score.energy, cold[p].score.energy);
    EXPECT_EQ(warm[p].score.qoe, cold[p].score.qoe);
  }

  // Fresh engine at 4 workers, cold then warm: identical to the serial run.
  core::SweepEngine parallel(4);
  for (int pass = 0; pass < 2; ++pass) {
    const auto outcomes = parallel.run_suite_points(points);
    ASSERT_EQ(outcomes.size(), cold.size());
    for (std::size_t p = 0; p < cold.size(); ++p) {
      EXPECT_EQ(outcomes[p].score.overall, cold[p].score.overall);
      EXPECT_EQ(outcomes[p].score.realtime, cold[p].score.realtime);
      EXPECT_EQ(outcomes[p].score.energy, cold[p].score.energy);
      EXPECT_EQ(outcomes[p].score.qoe, cold[p].score.qoe);
    }
  }
}

}  // namespace
}  // namespace xrbench
