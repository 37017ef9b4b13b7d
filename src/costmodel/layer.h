#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace xrbench::costmodel {

/// Primitive operator types understood by the analytical cost model.
///
/// Every network in the model zoo is lowered to a sequence of these
/// primitives (Table 7 of the paper lists the operator families per model:
/// CONV2D, DWCONV, FC, Maxpool/Avgpool, DeCONV, Self-attention, Layernorm,
/// Skip connections, Upsample, RoIAlign).
enum class OpType {
  kConv2d,          ///< Dense 2D convolution (also used for DeCONV on the
                    ///< upsampled output grid).
  kDepthwiseConv2d, ///< Per-channel convolution (channel multiplier 1).
  kFullyConnected,  ///< Dense layer; lowered as 1x1x1 conv internally.
  kMatMul,          ///< General matrix multiply (attention, FFN blocks).
  kPool,            ///< Max/avg pooling (memory-bound vector op).
  kElementwise,     ///< Residual adds, activations, bias (vector op).
  kLayerNorm,       ///< Normalization (vector op, 2 passes over data).
  kSoftmax,         ///< Attention softmax (vector op, 2 passes).
  kUpsample,        ///< Nearest/bilinear upsampling (memory-bound).
  kRoiAlign,        ///< Detection-head pooling (memory-bound gather).
};

const char* op_type_name(OpType t);
bool is_vector_op(OpType t);  ///< True for memory-bound non-MAC primitives.

/// One operator instance with concrete dimensions.
///
/// Convolution-family dims follow MAESTRO convention:
///   K = output channels, C = input channels, Y/X = *output* spatial dims,
///   R/S = kernel height/width, stride folded into Y/X already.
/// MatMul uses M x Kdim x N mapped as: K=N, C=Kdim, X=M, Y=R=S=1.
/// Vector ops use `elems` (element count of the dominant tensor).
struct Layer {
  std::string name;
  OpType type = OpType::kConv2d;

  // Convolution / matmul dims (all >= 1).
  std::int64_t k = 1;  ///< Output channels (or N for matmul).
  std::int64_t c = 1;  ///< Input channels (or inner K for matmul).
  std::int64_t y = 1;  ///< Output rows (or 1 for matmul).
  std::int64_t x = 1;  ///< Output cols (or M for matmul).
  std::int64_t r = 1;  ///< Kernel rows.
  std::int64_t s = 1;  ///< Kernel cols.

  // Vector-op element count (ignored for MAC ops).
  std::int64_t elems = 0;

  /// Multiply-accumulate count for MAC ops; effective op count for vector
  /// ops (1 op per element per pass).
  std::int64_t macs() const;

  /// Parameter count (weights + bias) in elements. Vector ops carry
  /// negligible parameters (LayerNorm scales counted).
  std::int64_t params() const;

  /// Tensor footprints in bytes assuming 8-bit quantized tensors
  /// (the paper evaluates all models 8-bit quantized).
  std::int64_t input_bytes() const;
  std::int64_t weight_bytes() const;
  std::int64_t output_bytes() const;

  /// Validates dimension sanity (all dims >= 1, vector ops have elems > 0).
  bool valid() const;

  /// Everything that determines the layer's cost: its type and dimensions,
  /// i.e. every field but the name. Layers with equal shapes cost the same
  /// on any sub-accelerator.
  std::array<std::int64_t, 8> shape() const {
    return {static_cast<std::int64_t>(type), k, c, y, x, r, s, elems};
  }

  /// The unnamed layer whose shape() is `shape`.
  static Layer from_shape(const std::array<std::int64_t, 8>& shape) {
    Layer layer;
    layer.type = static_cast<OpType>(shape[0]);
    layer.k = shape[1];
    layer.c = shape[2];
    layer.y = shape[3];
    layer.x = shape[4];
    layer.r = shape[5];
    layer.s = shape[6];
    layer.elems = shape[7];
    return layer;
  }
};

// ---- Layer factory helpers (used by the model zoo) -------------------------

/// Conv2D given *input* spatial size; output dims computed with `same`-style
/// padding: out = ceil(in / stride).
Layer conv2d(std::string name, std::int64_t in_ch, std::int64_t out_ch,
             std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
             std::int64_t stride = 1);

/// Depthwise Conv2D (channel multiplier 1).
Layer dwconv2d(std::string name, std::int64_t channels, std::int64_t in_h,
               std::int64_t in_w, std::int64_t kernel, std::int64_t stride = 1);

/// Transposed convolution modeled as a conv over the upsampled output grid.
Layer deconv2d(std::string name, std::int64_t in_ch, std::int64_t out_ch,
               std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
               std::int64_t upscale = 2);

Layer fully_connected(std::string name, std::int64_t in_dim,
                      std::int64_t out_dim);

/// MatMul computing [m x kdim] * [kdim x n].
Layer matmul(std::string name, std::int64_t m, std::int64_t kdim,
             std::int64_t n);

Layer pool(std::string name, std::int64_t channels, std::int64_t out_h,
           std::int64_t out_w, std::int64_t window);

Layer elementwise(std::string name, std::int64_t elems);
Layer layer_norm(std::string name, std::int64_t tokens, std::int64_t dim);
Layer softmax(std::string name, std::int64_t rows, std::int64_t cols);
Layer upsample(std::string name, std::int64_t channels, std::int64_t out_h,
               std::int64_t out_w);
Layer roi_align(std::string name, std::int64_t num_rois, std::int64_t channels,
                std::int64_t pooled_size);

}  // namespace xrbench::costmodel
