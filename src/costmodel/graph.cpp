#include "costmodel/graph.h"

#include <stdexcept>

#include "costmodel/hash.h"

namespace xrbench::costmodel {

void ModelGraph::add(Layer layer) {
  if (!layer.valid()) {
    throw std::invalid_argument("ModelGraph::add: invalid layer '" +
                                layer.name + "' in model '" + name_ + "'");
  }
  for (std::int64_t v : layer.shape()) {
    structure_hash_ =
        hash_combine(structure_hash_, static_cast<std::uint64_t>(v));
  }
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
