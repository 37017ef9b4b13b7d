#include "costmodel/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace xrbench::costmodel {
namespace {

TEST(ModelGraph, EmptyGraph) {
  ModelGraph g("empty");
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.total_macs(), 0);
  EXPECT_EQ(g.total_params(), 0);
  EXPECT_EQ(g.total_flops(), 0);
  EXPECT_EQ(g.name(), "empty");
}

TEST(ModelGraph, AccumulatesTotals) {
  ModelGraph g("g");
  g.add(conv2d("c1", 4, 8, 8, 8, 3, 1));
  g.add(conv2d("c2", 8, 8, 8, 8, 3, 1));
  const std::int64_t macs1 = 8ll * 4 * 8 * 8 * 9;
  const std::int64_t macs2 = 8ll * 8 * 8 * 8 * 9;
  EXPECT_EQ(g.total_macs(), macs1 + macs2);
  EXPECT_EQ(g.total_flops(), 2 * (macs1 + macs2));
  EXPECT_EQ(g.num_layers(), 2u);
}

TEST(ModelGraph, RejectsInvalidLayer) {
  ModelGraph g("g");
  Layer bad = conv2d("c", 4, 8, 8, 8, 3, 1);
  bad.k = 0;
  EXPECT_THROW(g.add(bad), std::invalid_argument);
  EXPECT_TRUE(g.empty());
  EXPECT_TRUE(g.shape_classes().empty());
  EXPECT_TRUE(g.class_shapes().empty());
}

TEST(ModelGraph, ActivationBytesSumOutputs) {
  ModelGraph g("g");
  g.add(conv2d("c", 4, 8, 8, 8, 3, 1));
  g.add(elementwise("e", 100));
  EXPECT_EQ(g.total_activation_bytes(), 8ll * 8 * 8 + 100);
}

TEST(ModelGraph, LayersPreserveOrder) {
  ModelGraph g("g");
  g.add(conv2d("first", 1, 1, 4, 4, 1, 1));
  g.add(elementwise("second", 10));
  ASSERT_EQ(g.num_layers(), 2u);
  EXPECT_EQ(g.layers()[0].name, "first");
  EXPECT_EQ(g.layers()[1].name, "second");
}

TEST(ModelGraph, ShapeClassesNumberedByFirstOccurrence) {
  ModelGraph g("g");
  const Layer conv = conv2d("conv", 4, 8, 8, 8, 3, 1);
  const Layer add = elementwise("add", 512);
  const Layer pool_layer = pool("pool", 8, 4, 4, 2);
  for (const Layer& layer : {add, conv, add, pool_layer, conv, conv}) {
    g.add(layer);
  }
  EXPECT_EQ(g.shape_classes(),
            (std::vector<std::uint32_t>{0, 1, 0, 2, 1, 1}));
  ASSERT_EQ(g.class_shapes().size(), 3u);
  EXPECT_EQ(g.class_shapes()[0], add.shape());
  EXPECT_EQ(g.class_shapes()[1], conv.shape());
  EXPECT_EQ(g.class_shapes()[2], pool_layer.shape());
}

TEST(ModelGraph, RenamedLayerSharesItsShapeClass) {
  ModelGraph g("g");
  g.add(conv2d("first", 4, 8, 8, 8, 3, 1));
  g.add(conv2d("second", 4, 8, 8, 8, 3, 1));
  EXPECT_EQ(g.shape_classes(), (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(g.class_shapes().size(), 1u);
}

TEST(ModelGraph, OneChangedDimensionMakesANewShapeClass) {
  // Every field of Layer::shape() separates classes on its own.
  const Layer conv = conv2d("conv", 4, 8, 8, 8, 3, 1);
  const Layer add = elementwise("add", 512);
  std::vector<Layer> variants(8, conv);
  variants[0].type = OpType::kDepthwiseConv2d;
  variants[1].k += 1;
  variants[2].c += 1;
  variants[3].y += 1;
  variants[4].x += 1;
  variants[5].r += 1;
  variants[6].s += 1;
  variants[7] = add;
  variants[7].elems += 1;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    const Layer& base = v == 7 ? add : conv;
    ModelGraph g("g");
    g.add(base);
    g.add(variants[v]);
    g.add(base);
    EXPECT_EQ(g.shape_classes(), (std::vector<std::uint32_t>{0, 1, 0}));
    ASSERT_EQ(g.class_shapes().size(), 2u);
    EXPECT_EQ(g.class_shapes()[1], variants[v].shape());
  }
}

TEST(ModelGraph, CopiesShareTheKeyUntilOneAdds) {
  // A copy shares its original's key object; add() copies a shared key
  // before it writes, so the other graph and any held key keep theirs.
  ModelGraph g("g");
  g.add(conv2d("conv", 4, 8, 8, 8, 3, 1));
  const auto held = g.key();
  ModelGraph copy = g;
  EXPECT_EQ(copy.key(), held);
  EXPECT_TRUE(held->matches(copy));

  copy.add(elementwise("add", 512));
  EXPECT_NE(copy.key(), held);
  EXPECT_EQ(g.key(), held);
  EXPECT_EQ(held->shape_classes, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(copy.shape_classes(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(held->matches(copy));

  // A graph whose key nobody else holds writes it in place.
  ModelGraph own("own");
  own.add(conv2d("conv", 4, 8, 8, 8, 3, 1));
  const GraphKey* before = own.key().get();
  own.add(elementwise("add", 512));
  EXPECT_EQ(own.key().get(), before);
  EXPECT_TRUE(own.key()->matches(copy));
}

}  // namespace
}  // namespace xrbench::costmodel
