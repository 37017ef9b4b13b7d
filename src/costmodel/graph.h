#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/layer.h"

namespace xrbench::costmodel {

class ModelGraph;

/// The layer shapes of one model graph: the graph's shape-class sequence
/// (4 B per layer) and its distinct shapes (64 B each), which together spell
/// out every layer's shape; layer names are not part of it. A ModelGraph
/// keeps its shapes as one shared key object, and the model-level memo keys
/// its entries on that object itself: every entry of the graph, whatever its
/// sub-accelerator, holds the graph's own key.
struct GraphKey {
  std::vector<std::uint32_t> shape_classes;
  std::vector<std::array<std::int64_t, 8>> class_shapes;

  /// True when `graph`'s layer shapes are this key: at once when the graph
  /// keeps this very object, else by comparing the shapes in place, so a
  /// renamed copy still matches and a forged hash collision does not.
  bool matches(const ModelGraph& graph) const;
};

/// A model lowered to an ordered list of primitive layers.
///
/// Execution is layer-by-layer (the cost model assumes no inter-layer
/// pipelining, matching MAESTRO's per-layer analysis).
///
/// The layer shapes live in one shared GraphKey. A copy of the graph shares
/// it, and add() copies it first when anyone else holds it, so a key handed
/// out by key() never changes. The graph has no move operations: a moved
/// graph is copied, and no graph is ever left without a key.
class ModelGraph {
 public:
  ModelGraph() = default;
  explicit ModelGraph(std::string name) : name_(std::move(name)) {}
  ModelGraph(const ModelGraph&) = default;
  ModelGraph& operator=(const ModelGraph&) = default;

  void add(Layer layer);

  const std::string& name() const { return name_; }
  const std::vector<Layer>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }
  bool empty() const { return layers_.empty(); }

  /// Hash of the layer shapes in order (Layer::shape; names excluded), kept
  /// current by add(). Graphs with equal layer shapes hash equally whatever
  /// their names, so the cost model's memo can index by it without
  /// re-reading the layers.
  std::uint64_t structure_hash() const { return structure_hash_; }

  /// Per layer, its shape class: the ordinal of its Layer::shape() among
  /// the graph's distinct shapes, numbered in first-occurrence order, so a
  /// layer's class is at most the number of classes before it. Layers of
  /// one class cost the same on any sub-accelerator, which lets the cost
  /// model cost each class once; kept current by add().
  const std::vector<std::uint32_t>& shape_classes() const {
    return key_->shape_classes;
  }

  /// The graph's distinct layer shapes, indexed by shape class. With
  /// shape_classes() it spells out every layer's shape.
  const std::vector<std::array<std::int64_t, 8>>& class_shapes() const {
    return key_->class_shapes;
  }

  /// The graph's layer shapes as the object the graph keeps them in. Later
  /// add()s leave the returned key as it is.
  std::shared_ptr<const GraphKey> key() const { return key_; }

  /// Aggregate multiply-accumulate count across layers.
  std::int64_t total_macs() const;

  /// FLOPs = 2 * MACs for MAC ops plus vector op counts.
  std::int64_t total_flops() const { return 2 * total_macs(); }

  /// Total parameter count (elements; bytes at 8-bit quantization).
  std::int64_t total_params() const;

  /// Sum of per-layer activation output bytes (8-bit).
  std::int64_t total_activation_bytes() const;

 private:
  friend struct GraphKey;

  std::string name_;
  std::vector<Layer> layers_;
  std::uint64_t structure_hash_ = 0;
  std::shared_ptr<GraphKey> key_ = std::make_shared<GraphKey>();
};

inline bool GraphKey::matches(const ModelGraph& graph) const {
  return graph.key_.get() == this ||
         (graph.key_->shape_classes == shape_classes &&
          graph.key_->class_shapes == class_shapes);
}

}  // namespace xrbench::costmodel
