#pragma once

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
};

}  // namespace xrbench::costmodel
