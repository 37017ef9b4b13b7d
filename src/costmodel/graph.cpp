#include "costmodel/graph.h"

#include <algorithm>
#include <stdexcept>

#include "costmodel/hash.h"

namespace xrbench::costmodel {

void ModelGraph::add(Layer layer) {
  if (!layer.valid()) {
    throw std::invalid_argument("ModelGraph::add: invalid layer '" +
                                layer.name + "' in model '" + name_ + "'");
  }
  // Copy-on-write: a key that a graph copy or the cost model's memo also
  // holds is left as it is. use_count() is a relaxed read, so a holder
  // dropped on another thread must be ordered before this add() by the
  // caller's own synchronization, as any write to the graph must be.
  if (key_.use_count() > 1) key_ = std::make_shared<GraphKey>(*key_);
  const auto shape = layer.shape();
  for (std::int64_t v : shape) {
    structure_hash_ =
        hash_combine(structure_hash_, static_cast<std::uint64_t>(v));
  }
  // A linear scan: graphs are built in code, and no zoo model has more
  // than 64 distinct shapes.
  auto& classes = key_->class_shapes;
  const auto known = std::find(classes.begin(), classes.end(), shape);
  key_->shape_classes.push_back(
      static_cast<std::uint32_t>(known - classes.begin()));
  if (known == classes.end()) classes.push_back(shape);
  layers_.push_back(std::move(layer));
}

std::int64_t ModelGraph::total_macs() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.macs();
  return total;
}

std::int64_t ModelGraph::total_params() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.params();
  return total;
}

std::int64_t ModelGraph::total_activation_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.output_bytes();
  return total;
}

}  // namespace xrbench::costmodel
