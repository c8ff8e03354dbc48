// Convolution geometry of the im2col lowering.
//
// Layout conventions (all row-major):
//   image  : [C, H, W]                        (single sample)
//   column : [C*KH*KW, OH*OW]
// so that conv output = weight_matrix [Cout, C*KH*KW] x column. The column
// matrix is never materialized: gemm_conv_raw (gemm.hpp) packs its GEMM
// panels straight from the image, and conv_input_grad (gemm.hpp) computes
// the input gradient, col2im(Wᵀ x G), straight into the image. The
// materialized im2col/col2im pair survives only as the test reference
// (tests/im2col_reference.hpp).
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace snnsec::tensor {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;

  std::int64_t out_h() const {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  std::int64_t out_w() const {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the column matrix.
  std::int64_t patch_size() const { return channels * kernel_h * kernel_w; }

  /// Throws util::Error when kernel/stride/padding do not produce a
  /// positive output size.
  void validate() const;
};

}  // namespace snnsec::tensor
