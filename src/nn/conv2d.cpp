// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "nn/conv2d.hpp"

#include <algorithm>
#include <sstream>

#include "nn/init.hpp"
#include "obs/trace.hpp"
#include "tensor/spike_events.hpp"
#include "util/checked.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::nn {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;
using tensor::Trans;

Conv2d::Conv2d(Conv2dSpec spec, util::Rng& rng, bool bias, InputKind input)
    : spec_(spec),
      has_bias_(bias),
      input_(input),
      weight_("weight",
              kaiming_uniform(
                  Shape{spec.out_channels,
                        spec.in_channels * spec.kernel * spec.kernel},
                  spec.in_channels * spec.kernel * spec.kernel, rng)),
      bias_("bias",
            bias ? bias_uniform(spec.out_channels,
                                spec.in_channels * spec.kernel * spec.kernel,
                                rng)
                 : Tensor(Shape{spec.out_channels})) {
  SNNSEC_CHECK(spec.in_channels > 0 && spec.out_channels > 0,
               "Conv2d: channel counts must be positive");
  SNNSEC_CHECK(spec.kernel > 0 && spec.stride > 0 && spec.padding >= 0,
               "Conv2d: bad kernel/stride/padding");
}

ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.channels = spec_.in_channels;
  g.height = h;
  g.width = w;
  g.kernel_h = g.kernel_w = spec_.kernel;
  g.stride_h = g.stride_w = spec_.stride;
  g.pad_h = g.pad_w = spec_.padding;
  g.validate();
  return g;
}

Tensor Conv2d::forward(const Tensor& x, Mode mode) {
  Tensor y;
  forward_into(x, y, mode);
  return y;
}

/// Event-driven eval forward: scatter-accumulate value-scaled W^T rows into
/// the transposed output for every nonzero input pixel —
///   Ct [N*OHW, Cout] += x[i, c, iy, ix] * W^T[patch position, :]
/// across the receptive-field windows each pixel occupies — then fuse
/// bias + reorder into [N, Cout, OH, OW]. The transposed formulation is
/// what moves the spike sparsity to the operand the kernel walks; the
/// classic im2col lowering leaves it in B where no row skip can see it,
/// and materializing per-patch event lists (the test reference's
/// formulation) would duplicate every spike up to KH*KW-fold.
void Conv2d::forward_events(const Tensor& x, Tensor& y,
                            const ConvGeometry& g) {
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t cout = spec_.out_channels;

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  float* pct = ws.alloc<float>(static_cast<std::size_t>(n * ohw * cout));
  {
    SNNSEC_TRACE_SCOPE("conv.event_scatter");
    tensor::conv_events(g, x.data(), n, weight_.value.data(), cout, pct, ws);
  }

  if (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != cout || y.dim(2) != oh ||
      y.dim(3) != ow)
    y = Tensor(Shape{n, cout, oh, ow});
  {
    SNNSEC_TRACE_SCOPE("conv.bias_reorder");
    float* py = y.data();
    const float* pb = bias_.value.data();
    const bool has_bias = has_bias_;
    util::parallel_for_chunked(
        0, cout, [&, py, pb, has_bias, cout](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t co = lo; co < hi; ++co) {
            const float b = has_bias ? pb[co] : 0.0f;
            for (std::int64_t i = 0; i < n; ++i) {
              const float* src = pct + i * ohw * cout + co;
              float* dst = py + (i * cout + co) * ohw;
              for (std::int64_t j = 0; j < ohw; ++j)
                dst[j] = src[j * cout] + b;
            }
          }
        });
  }
}

void Conv2d::forward_into(const Tensor& x, Tensor& y, Mode mode) {
  SNNSEC_CHECK(x.ndim() == 4 && x.dim(1) == spec_.in_channels,
               name() << ": bad input shape " << x.shape().to_string());
  const std::int64_t n = x.dim(0);
  const ConvGeometry g = geometry(x.dim(2), x.dim(3));
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  if (!cache_enabled(mode) && input_ == InputKind::kEvents) {
    // Event path is eval-only. Train and attack forwards keep the dense
    // lowering, so attack numerics stay bit-identical to train's. The choice
    // is fixed per (layer, mode) — no data probe, no mid-run flips.
    forward_events(x, y, g);
    return;
  }

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);

  // A train backward's weight gradient re-lowers the input, so keep a copy.
  // Copy-assignment reuses the buffer: no allocation at a steady shape.
  if (param_grads_enabled(mode)) cached_input_ = x;

  // raw = W [Cout, patch] x columns [patch, N*OHW] -> [Cout, N*OHW], with
  // the columns packed straight from x inside the GEMM. op(A) is the WEIGHT
  // matrix, dense whatever the layer's input kind, so an event-input layer
  // switches the lowering itself above instead.
  float* praw =
      ws.alloc<float>(static_cast<std::size_t>(spec_.out_channels * n * ohw));
  tensor::gemm_conv_raw(Trans::kNo, Trans::kNo, spec_.out_channels, 1.0f,
                        weight_.value.data(), patch, g, x.data(), n, 0.0f,
                        praw, n * ohw);

  // Fused bias-add + reorder [Cout][n][ohw] -> [n][Cout][ohw], parallel over
  // output channels (each channel writes disjoint rows of y).
  if (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != spec_.out_channels ||
      y.dim(2) != oh || y.dim(3) != ow)
    y = Tensor(Shape{n, spec_.out_channels, oh, ow});
  {
    SNNSEC_TRACE_SCOPE("conv.bias_reorder");
    float* py = y.data();
    const float* pb = bias_.value.data();
    const bool has_bias = has_bias_;
    const std::int64_t cout = spec_.out_channels;
    util::parallel_for_chunked(
        0, cout, [&, py, pb, has_bias, cout](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t co = lo; co < hi; ++co) {
            const float b = has_bias ? pb[co] : 0.0f;
            for (std::int64_t i = 0; i < n; ++i) {
              const float* src = praw + co * (n * ohw) + i * ohw;
              float* dst = py + (i * cout + co) * ohw;
              for (std::int64_t j = 0; j < ohw; ++j) dst[j] = src[j] + b;
            }
          }
        });
  }

  if (cache_enabled(mode)) {
    cached_geom_ = g;
    cached_batch_ = n;
    cached_mode_ = mode;
  }
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(cache_enabled(cached_mode_),
               name() << "::backward without cached forward");
  const ConvGeometry& g = cached_geom_;
  const std::int64_t n = cached_batch_;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  SNNSEC_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == spec_.out_channels &&
                   grad_out.dim(2) == oh && grad_out.dim(3) == ow,
               name() << "::backward: bad grad shape "
                      << grad_out.shape().to_string());

  const std::int64_t patch = g.patch_size();
  const std::int64_t cout = spec_.out_channels;
  const bool param_grads = param_grads_enabled(cached_mode_);
  // The input cached by a train forward must still match this geometry; a
  // stale cache (e.g. forward ran again with another batch size between the
  // pair) would silently compute garbage gradients.
  if (param_grads)
    SNNSEC_ASSERT_SHAPE(cached_input_,
                        Shape{n, g.channels, g.height, g.width});
  // Train only: reorder grad to GEMM layout G [Cout, N*OHW] for the weight
  // gradient, accumulating the per-channel bias gradient while the rows
  // are hot, parallel over output channels. Then dW += G x columns^T :
  // [Cout, patch], with columns^T packed from the cached input. op(A) is
  // the upstream gradient — dense by role (surrogate gradients are
  // real-valued, not spikes).
  if (param_grads) {
    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    float* pm = ws.alloc<float>(static_cast<std::size_t>(cout * n * ohw));
    {
      SNNSEC_TRACE_SCOPE("conv.grad_reorder");
      const float* pg = grad_out.data();
      float* pb = has_bias_ ? bias_.grad.data() : nullptr;
      util::parallel_for_chunked(0, cout, [&](std::int64_t lo,
                                              std::int64_t hi) {
        for (std::int64_t co = lo; co < hi; ++co) {
          double bias_acc = 0.0;
          float* dst = pm + co * (n * ohw);
          for (std::int64_t i = 0; i < n; ++i) {
            const float* src = pg + (i * cout + co) * ohw;
            std::copy(src, src + ohw, dst + i * ohw);
            if (pb)
              for (std::int64_t j = 0; j < ohw; ++j) bias_acc += src[j];
          }
          if (pb) pb[co] += static_cast<float>(bias_acc);
        }
      });
    }
    tensor::gemm_conv_raw(Trans::kNo, Trans::kYes, cout, 1.0f, pm, n * ohw,
                          g, cached_input_.data(), n, 1.0f,
                          weight_.grad.data(), patch);
  }

  // dx = col2im(W^T x G), computed per sample with each sample's G read in
  // place from grad_out as [Cout, OHW] — no column matrix, bit-identical to
  // the transposed GEMM plus col2im (tensor::conv_input_grad).
  Tensor dx(Shape{n, g.channels, g.height, g.width});
  {
    SNNSEC_TRACE_SCOPE("conv.input_grad");
    tensor::conv_input_grad(g, weight_.value.data(), cout, grad_out.data(), n,
                            dx.data());
  }
  return dx;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::string Conv2d::name() const {
  std::ostringstream oss;
  oss << "Conv2d(" << spec_.in_channels << "->" << spec_.out_channels << ", "
      << spec_.kernel << "x" << spec_.kernel << ", stride=" << spec_.stride
      << ", pad=" << spec_.padding << ")";
  return oss.str();
}

void Conv2d::clear_cache() {
  cached_input_ = Tensor();
  cached_mode_ = Mode::kEval;
}

}  // namespace snnsec::nn
