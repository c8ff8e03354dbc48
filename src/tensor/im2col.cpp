// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "tensor/im2col.hpp"

#include <algorithm>

#include "util/checked.hpp"

namespace snnsec::tensor {

namespace {

/// The outputs [lo, hi) of one axis whose input position o*stride + offset
/// lies inside [0, in); every other output of that kernel tap reads padding.
/// `offset` is the kernel tap minus the padding.
struct ValidRange {
  std::int64_t lo;
  std::int64_t hi;
};

ValidRange valid_range(std::int64_t in, std::int64_t offset,
                       std::int64_t stride, std::int64_t out) {
  const std::int64_t first = -offset;         // o*stride >= first
  const std::int64_t last = in - 1 - offset;  // o*stride <= last
  const std::int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  const std::int64_t lo = first > 0 ? (first + stride - 1) / stride : 0;
  return {std::min(lo, hi), hi};
}

}  // namespace

void ConvGeometry::validate() const {
  SNNSEC_CHECK(channels > 0 && height > 0 && width > 0,
               "ConvGeometry: non-positive input dims");
  SNNSEC_CHECK(kernel_h > 0 && kernel_w > 0, "ConvGeometry: non-positive kernel");
  SNNSEC_CHECK(stride_h > 0 && stride_w > 0, "ConvGeometry: non-positive stride");
  SNNSEC_CHECK(pad_h >= 0 && pad_w >= 0, "ConvGeometry: negative padding");
  SNNSEC_CHECK(out_h() > 0 && out_w() > 0,
               "ConvGeometry: empty output (" << out_h() << "x" << out_w()
                                              << ")");
}

void col2im_ld(const ConvGeometry& g, const float* columns, float* image_grad,
               std::int64_t ld, std::int64_t col0) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  SNNSEC_DCHECK(ld >= oh * ow && col0 >= 0 && col0 + oh * ow <= ld,
                "col2im_ld: window [" << col0 << ", " << col0 + oh * ow
                                      << ") exceeds leading dim " << ld);
  // Each kernel tap's valid output rectangle is computed once, so there is
  // no per-element bounds test. Accumulation runs tap, then oy, then ox
  // ascending, as the per-element reference in the tests does.
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

}  // namespace snnsec::tensor
