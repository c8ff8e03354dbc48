#include "nn/pooling.hpp"

#include <limits>
#include <sstream>

#include "util/checked.hpp"
#include "util/simd.hpp"

namespace snnsec::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {
std::int64_t pooled_size(std::int64_t in, std::int64_t kernel,
                         std::int64_t stride) {
  // Guard before dividing: C++ truncation would turn (in < kernel) into a
  // bogus positive size (e.g. (2-4)/4 + 1 == 1) and an out-of-bounds walk.
  if (in < kernel) return 0;
  return (in - kernel) / stride + 1;
}

// Forward of the 2x2, stride-2 window, shared by AvgPool2d::forward and
// forward_into so both entry points are bit-identical: two row pointers and
// a kernel x kernel accumulator's add order, 0.0f + a + b + c + d (row-major
// taps; the leading 0.0f keeps -0 becoming +0), then * 0.25f.
SNNSEC_KERNEL_CLONES
void avg_pool_2x2(const float* px, float* py, std::int64_t planes,
                  std::int64_t h, std::int64_t w, std::int64_t oh,
                  std::int64_t ow) {
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    const float* plane = px + nc * h * w;
    float* out = py + nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + 2 * oy * w;
      const float* r1 = r0 + w;
      float* o = out + oy * ow;
      for (std::int64_t ox = 0; ox < ow; ++ox)
        o[ox] = (0.0f + r0[2 * ox] + r0[2 * ox + 1] + r1[2 * ox] +
                 r1[2 * ox + 1]) *
                0.25f;
    }
  }
}

// Backward of avg_pool_2x2 into a zeroed dx: the windows do not overlap,
// so each covered tap is stored 0.0f + g * 0.25f — what a zero-fill then
// += scatter would leave there — and uncovered odd edges stay 0.
// Not cloned: a v3 clone would fuse this into fma(g, 0.25f, 0.0f), which
// keeps the sign of a product that underflows to zero (-0, not +0).
void avg_pool_2x2_backward(const float* pg, float* pd, std::int64_t planes,
                           std::int64_t h, std::int64_t w, std::int64_t oh,
                           std::int64_t ow) {
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    float* plane = pd + nc * h * w;
    const float* gout = pg + nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      float* r0 = plane + 2 * oy * w;
      float* r1 = r0 + w;
      const float* g = gout + oy * ow;
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float v = 0.0f + g[ox] * 0.25f;
        r0[2 * ox] = v;
        r0[2 * ox + 1] = v;
        r1[2 * ox] = v;
        r1[2 * ox + 1] = v;
      }
    }
  }
}

// The one window AvgPool2d implements: every pool the spiking LeNet builds
// is AvgPool2d(2). Other shapes are rejected after the size check.
void check_2x2(const AvgPool2d& pool, std::int64_t kernel,
               std::int64_t stride) {
  SNNSEC_CHECK(kernel == 2 && stride == 2,
               pool.name() << ": only the 2x2, stride-2 window is implemented");
}
}  // namespace

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {
  SNNSEC_CHECK(kernel_ > 0 && stride_ > 0, "AvgPool2d: bad kernel/stride");
}

Tensor AvgPool2d::forward(const Tensor& x, Mode /*mode*/) {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  n_ = x.dim(0);
  c_ = x.dim(1);
  h_ = x.dim(2);
  w_ = x.dim(3);
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(oh > 0 && ow > 0, name() << ": input smaller than kernel");
  check_2x2(*this, kernel_, stride_);
  have_cache_ = true;

  Tensor y(Shape{n_, c_, oh, ow});
  avg_pool_2x2(x.data(), y.data(), n_ * c_, h_, w_, oh, ow);
  return y;
}

void AvgPool2d::forward_into(const Tensor& x, Tensor& y) const {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  const std::int64_t n = x.dim(0);
  const std::int64_t c = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = pooled_size(h, kernel_, stride_);
  const std::int64_t ow = pooled_size(w, kernel_, stride_);
  SNNSEC_CHECK(oh > 0 && ow > 0, name() << ": input smaller than kernel");
  check_2x2(*this, kernel_, stride_);
  if (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != c || y.dim(2) != oh ||
      y.dim(3) != ow)
    y = Tensor(Shape{n, c, oh, ow});
  avg_pool_2x2(x.data(), y.data(), n * c, h, w, oh, ow);
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without forward");
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == n_ &&
                   grad_out.dim(1) == c_ && grad_out.dim(2) == oh &&
                   grad_out.dim(3) == ow,
               name() << "::backward: bad grad shape "
                      << grad_out.shape().to_string());
  Tensor dx(Shape{n_, c_, h_, w_});
  avg_pool_2x2_backward(grad_out.data(), dx.data(), n_ * c_, h_, w_, oh, ow);
  return dx;
}

std::string AvgPool2d::name() const {
  std::ostringstream oss;
  oss << "AvgPool2d(" << kernel_ << ", stride=" << stride_ << ")";
  return oss.str();
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {
  SNNSEC_CHECK(kernel_ > 0 && stride_ > 0, "MaxPool2d: bad kernel/stride");
}

Tensor MaxPool2d::forward(const Tensor& x, Mode mode) {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  n_ = x.dim(0);
  c_ = x.dim(1);
  h_ = x.dim(2);
  w_ = x.dim(3);
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(oh > 0 && ow > 0, name() << ": input smaller than kernel");

  Tensor y(Shape{n_, c_, oh, ow});
  const bool keep = cache_enabled(mode);
  if (keep) argmax_.assign(static_cast<std::size_t>(n_ * c_ * oh * ow), 0);
  have_cache_ = keep;

  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t nc = 0; nc < n_ * c_; ++nc) {
    const float* plane = px + nc * h_ * w_;
    float* out = py + nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ky = 0; ky < kernel_; ++ky)
          for (std::int64_t kx = 0; kx < kernel_; ++kx) {
            const std::int64_t idx =
                (oy * stride_ + ky) * w_ + ox * stride_ + kx;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        out[oy * ow + ox] = best;
        if (keep)
          argmax_[static_cast<std::size_t>(nc * oh * ow + oy * ow + ox)] =
              nc * h_ * w_ + best_idx;
      }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without train-mode forward");
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(grad_out.numel() ==
                   static_cast<std::int64_t>(argmax_.size()) &&
                   grad_out.dim(2) == oh && grad_out.dim(3) == ow,
               name() << "::backward: bad grad shape "
                      << grad_out.shape().to_string());
  Tensor dx(Shape{n_, c_, h_, w_});
  const float* pg = grad_out.data();
  float* pd = dx.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    // The argmax scatter is the one indirect write in the backward pass: a
    // corrupted index would smear gradient into a neighboring image plane.
    SNNSEC_DCHECK(argmax_[i] >= 0 && argmax_[i] < dx.numel(),
                  name() << "::backward: argmax index " << argmax_[i]
                         << " outside input of " << dx.numel());
    pd[argmax_[i]] += pg[static_cast<std::int64_t>(i)];
  }
  return dx;
}

std::string MaxPool2d::name() const {
  std::ostringstream oss;
  oss << "MaxPool2d(" << kernel_ << ", stride=" << stride_ << ")";
  return oss.str();
}

}  // namespace snnsec::nn
