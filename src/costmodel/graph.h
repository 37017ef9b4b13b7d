#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/layer.h"

namespace xrbench::costmodel {

/// A model lowered to an ordered list of primitive layers.
///
/// Execution is layer-by-layer (the cost model assumes no inter-layer
/// pipelining, matching MAESTRO's per-layer analysis).
class ModelGraph {
 public:
  ModelGraph() = default;
  explicit ModelGraph(std::string name) : name_(std::move(name)) {}

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
    return shape_classes_;
  }

  /// The graph's distinct layer shapes, indexed by shape class. With
  /// shape_classes() it spells out every layer's shape.
  const std::vector<std::array<std::int64_t, 8>>& class_shapes() const {
    return class_shapes_;
  }

  /// Aggregate multiply-accumulate count across layers.
  std::int64_t total_macs() const;

  /// FLOPs = 2 * MACs for MAC ops plus vector op counts.
  std::int64_t total_flops() const { return 2 * total_macs(); }

  /// Total parameter count (elements; bytes at 8-bit quantization).
  std::int64_t total_params() const;

  /// Sum of per-layer activation output bytes (8-bit).
  std::int64_t total_activation_bytes() const;

 private:
  std::string name_;
  std::vector<Layer> layers_;
  std::uint64_t structure_hash_ = 0;
  std::vector<std::uint32_t> shape_classes_;
  std::vector<std::array<std::int64_t, 8>> class_shapes_;
};

}  // namespace xrbench::costmodel
