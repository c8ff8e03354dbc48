#include "nn/linear.hpp"

#include <sstream>

#include "nn/init.hpp"
#include "tensor/ops.hpp"
#include "util/checked.hpp"
#include "util/workspace.hpp"

namespace snnsec::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::Trans;

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               util::Rng& rng, bool bias, InputKind input)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      input_(input),
      weight_("weight",
              kaiming_uniform(Shape{out_features, in_features}, in_features,
                              rng)),
      bias_("bias", bias ? bias_uniform(out_features, in_features, rng)
                         : Tensor(Shape{out_features})) {
  SNNSEC_CHECK(in_features > 0 && out_features > 0,
               "Linear: feature counts must be positive");
}

Tensor Linear::forward(const Tensor& x, Mode mode) {
  Tensor y;
  forward_into(x, y);  // validates the input shape
  if (cache_enabled(mode)) {
    // The input gradient dY W needs no forward state beyond the row count;
    // only the train-mode weight gradient reads the input itself.
    if (param_grads_enabled(mode)) cached_input_ = x;
    cached_rows_ = x.dim(0);
    cached_mode_ = mode;
  }
  return y;
}

void Linear::add_bias(Tensor& y) const {
  if (!has_bias_) return;
  const std::int64_t n = y.dim(0);
  float* py = y.data();
  const float* pb = bias_.value.data();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < out_features_; ++j)
      py[i * out_features_ + j] += pb[j];
}

void Linear::forward_into(const Tensor& x, Tensor& y) {
  SNNSEC_CHECK(x.ndim() == 2 && x.dim(1) == in_features_,
               "Linear(" << in_features_ << "->" << out_features_
                         << "): bad input shape " << x.shape().to_string());
  const std::int64_t n = x.dim(0);
  // Dim-wise compare so a warm steady state never reallocates.
  if (y.ndim() != 2 || y.dim(0) != n || y.dim(1) != out_features_)
    y = Tensor(Shape{n, out_features_});
  // beta = 0 is the kernels' overwrite path, so stale y contents are
  // ignored and the result is bit-identical to matmul into a fresh tensor.
  if (input_ == InputKind::kEvents) {
    // Compress the spike operand and event-accumulate weight rows. Building
    // the lists here (when no producer handed them over) costs one scan of
    // x and is bit-identical to the producer-built path: both emit events
    // in increasing column order and the kernel is per-row.
    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    const tensor::EventRows ev =
        tensor::build_event_rows(x.data(), in_features_, n, in_features_, ws);
    tensor::gemm_events(ev, Trans::kYes, out_features_, 1.0f,
                        weight_.value.data(), in_features_, 0.0f, y.data(),
                        out_features_);
  } else {
    tensor::gemm(Trans::kNo, Trans::kYes, 1.0f, x, weight_.value, 0.0f, y);
  }
  add_bias(y);
}

void Linear::forward_into_events(const tensor::EventRows& ev, Tensor& y) {
  SNNSEC_CHECK(input_ == InputKind::kEvents,
               "Linear::forward_into_events on a dense-input layer — the "
               "caller-built event lists would be dead weight");
  SNNSEC_CHECK(ev.cols == in_features_,
               "Linear(" << in_features_ << "->" << out_features_
                         << "): event operand has " << ev.cols
                         << " columns");
  const std::int64_t n = ev.rows;
  if (y.ndim() != 2 || y.dim(0) != n || y.dim(1) != out_features_)
    y = Tensor(Shape{n, out_features_});
  tensor::gemm_events(ev, Trans::kYes, out_features_, 1.0f,
                      weight_.value.data(), in_features_, 0.0f, y.data(),
                      out_features_);
  add_bias(y);
}

Tensor Linear::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(cache_enabled(cached_mode_),
               "Linear::backward without cached forward");
  SNNSEC_CHECK(grad_out.ndim() == 2 && grad_out.dim(1) == out_features_ &&
                   grad_out.dim(0) == cached_rows_,
               "Linear::backward: bad grad shape "
                   << grad_out.shape().to_string());
  // Train: dW += dY^T X ; db += colsum(dY). Every mode: dX = dY W.
  if (param_grads_enabled(cached_mode_)) {
    tensor::gemm(Trans::kYes, Trans::kNo, 1.0f, grad_out, cached_input_, 1.0f,
                 weight_.grad);
    if (has_bias_) {
      const std::int64_t n = grad_out.dim(0);
      const float* pg = grad_out.data();
      float* pb = bias_.grad.data();
      for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < out_features_; ++j)
          pb[j] += pg[i * out_features_ + j];
    }
  }
  return tensor::matmul(grad_out, weight_.value, Trans::kNo, Trans::kNo);
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::string Linear::name() const {
  std::ostringstream oss;
  oss << "Linear(" << in_features_ << "->" << out_features_
      << (has_bias_ ? "" : ", no bias") << ")";
  return oss.str();
}

}  // namespace snnsec::nn
