// Convolution geometry and the im2col lowering's adjoint.
//
// Layout conventions (all row-major):
//   image  : [C, H, W]                        (single sample)
//   column : [C*KH*KW, OH*OW]
// so that conv output = weight_matrix [Cout, C*KH*KW] x column. The forward
// column matrix is never materialized: gemm_conv_raw (gemm.hpp) packs its
// GEMM panels straight from the image. col2im_ld is the exact adjoint
// (scatter-add), used by conv backward for the input gradient.
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

/// Adjoint of the im2col lowering: scatter-add a [patch_size, *] column
/// matrix back into `image_grad` (length C*H*W), used by conv backward.
/// The column matrix has `ld` total columns (ld >= OH*OW) and this sample's
/// block starts at column `col0`, i.e. element (row, j) lives at
/// columns[row * ld + col0 + j], so one [patch_size, N*OH*OW] matrix serves
/// a whole batch. The caller zeroes image_grad beforehand if required.
void col2im_ld(const ConvGeometry& g, const float* columns, float* image_grad,
               std::int64_t ld, std::int64_t col0);

}  // namespace snnsec::tensor
