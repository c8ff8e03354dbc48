// The materialized im2col lowering, kept as the test reference for the
// implicit one (tensor::gemm_conv_raw packs the same floats straight from
// the input, so the two must agree bit for bit).
#pragma once

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

}  // namespace snnsec::testutil
