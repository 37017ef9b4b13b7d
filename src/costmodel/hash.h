#pragma once

#include <cstdint>

namespace xrbench::costmodel {

/// One step of the polynomial accumulation behind ModelGraph's structure
/// hash and the model-level memo's key hash. The odd multiplier shifts
/// every earlier field's bits upward, so small integers in successive
/// fields never cancel; avalanching is left to the memo's single splitmix64
/// finalizer.
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return (seed ^ v) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace xrbench::costmodel
