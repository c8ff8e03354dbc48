// The materialized im2col lowering and its col2im adjoint, kept as the test
// reference for the implicit ones: tensor::gemm_conv_raw packs the same
// floats straight from the input, and tensor::conv_input_grad adds the same
// Wᵀ x G products in the same order straight into the image, so each must
// agree with its reference bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>

#include "tensor/im2col.hpp"

namespace snnsec::testutil {

/// Expand `image` ([C,H,W]) into the column matrix [patch_size, *] with
/// leading dimension `ld`, this sample's block starting at column `col0`:
/// element (row, j) lands at columns[row * ld + col0 + j]. Bounds-tested
/// per element; padding contributes +0.0f.
inline void im2col_ld(const tensor::ConvGeometry& g, const float* image,
                      float* columns, std::int64_t ld, std::int64_t col0) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  for (std::int64_t c = 0; c < g.channels; ++c)
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::int64_t oy = 0; oy < oh; ++oy)
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t iy = oy * g.stride_h + kh - g.pad_h;
            const std::int64_t ix = ox * g.stride_w + kw - g.pad_w;
            const bool inside =
                iy >= 0 && iy < g.height && ix >= 0 && ix < g.width;
            columns[row * ld + col0 + oy * ow + ox] =
                inside ? image[(c * g.height + iy) * g.width + ix] : 0.0f;
          }
      }
}

/// One sample into a contiguous [patch_size, OH*OW] matrix.
inline void im2col(const tensor::ConvGeometry& g, const float* image,
                   float* columns) {
  im2col_ld(g, image, columns, g.out_h() * g.out_w(), 0);
}

/// The whole batch of NCHW images into one [patch_size, batch*OH*OW]
/// matrix, samples side by side — the B operand of a batched conv GEMM.
inline void im2col_batch(const tensor::ConvGeometry& g, const float* x,
                         std::int64_t batch, float* columns) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t image = g.channels * g.height * g.width;
  for (std::int64_t i = 0; i < batch; ++i)
    im2col_ld(g, x + i * image, columns, batch * ohw, i * ohw);
}

/// The outputs [lo, hi) of one axis whose input position o*stride + offset
/// lies inside [0, in); every other output of that kernel tap reads padding.
/// `offset` is the kernel tap minus the padding.
struct ValidRange {
  std::int64_t lo;
  std::int64_t hi;
};

inline ValidRange valid_range(std::int64_t in, std::int64_t offset,
                              std::int64_t stride, std::int64_t out) {
  const std::int64_t first = -offset;         // o*stride >= first
  const std::int64_t last = in - 1 - offset;  // o*stride <= last
  const std::int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  const std::int64_t lo = first > 0 ? (first + stride - 1) / stride : 0;
  return {std::min(lo, hi), hi};
}

/// Adjoint of the im2col lowering: scatter-add a [patch_size, *] column
/// matrix back into `image_grad` (length C*H*W). The column matrix has `ld`
/// total columns (ld >= OH*OW) and this sample's block starts at column
/// `col0`, so one [patch_size, N*OH*OW] matrix serves a whole batch. Each
/// kernel tap's valid output rectangle is computed once; accumulation runs
/// tap, then oy, then ox ascending. The caller zeroes image_grad beforehand
/// if required.
inline void col2im_ld(const tensor::ConvGeometry& g, const float* columns,
                      float* image_grad, std::int64_t ld, std::int64_t col0) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* plane = image_grad + c * g.height * g.width;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const std::int64_t iy0 = kh - g.pad_h;
      const ValidRange oys = valid_range(g.height, iy0, g.stride_h, oh);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const std::int64_t ix0 = kw - g.pad_w;
        const ValidRange oxs = valid_range(g.width, ix0, g.stride_w, ow);
        const float* src = columns + row * ld + col0;
        for (std::int64_t oy = oys.lo; oy < oys.hi; ++oy) {
          float* dst_row = plane + (oy * g.stride_h + iy0) * g.width;
          const float* in = src + oy * ow;
          for (std::int64_t ox = oxs.lo; ox < oxs.hi; ++ox)
            dst_row[ox * g.stride_w + ix0] += in[ox];
        }
      }
    }
  }
}

}  // namespace snnsec::testutil
