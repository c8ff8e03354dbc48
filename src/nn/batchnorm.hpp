// Batch normalization (Ioffe & Szegedy, 2015).
//
// BatchNorm2d normalizes each channel of a [N, C, H, W] tensor over
// (N, H, W); BatchNorm1d normalizes each feature of [N, F] over N. In
// train mode batch statistics are used and running estimates updated; in
// eval/attack mode the running estimates are used (so white-box gradients
// see the deployed, frozen normalization — the standard attack setting).
// With frozen statistics the map is affine per element, so an attack
// backward needs only inv_std and gamma: it caches no normalized input and
// computes no gamma/beta gradients.
#pragma once

#include "nn/layer.hpp"

namespace snnsec::nn {

namespace detail {

/// Shared implementation: normalization over groups of `inner` elements
/// repeated `outer` times per channel (2d: inner = H*W, outer = N;
/// 1d: inner = 1, outer = N).
class BatchNormBase : public Layer {
 public:
  BatchNormBase(std::int64_t num_features, double momentum, double eps);

  std::vector<Parameter*> parameters() override;
  void clear_cache() override;

  const tensor::Tensor& running_mean() const { return running_mean_; }
  const tensor::Tensor& running_var() const { return running_var_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 protected:
  /// Channel layout of `x`: flat index = (n * C + c) * inner + j.
  tensor::Tensor forward_impl(const tensor::Tensor& x, Mode mode,
                              std::int64_t channels, std::int64_t inner);
  tensor::Tensor backward_impl(const tensor::Tensor& grad_out);

  std::int64_t num_features_;
  double momentum_;
  double eps_;
  Parameter gamma_;
  Parameter beta_;
  tensor::Tensor running_mean_;
  tensor::Tensor running_var_;

  // caches for backward (train/attack forward)
  tensor::Tensor x_hat_;        // normalized input; kTrain only
  std::vector<float> inv_std_;  // per channel
  std::int64_t cached_inner_ = 0;
  std::int64_t cached_batch_ = 0;
  /// kTrain: batch statistics; kAttack: frozen; kEval: nothing cached.
  Mode cached_mode_ = Mode::kEval;
};

}  // namespace detail

class BatchNorm2d final : public detail::BatchNormBase {
 public:
  explicit BatchNorm2d(std::int64_t channels, double momentum = 0.1,
                       double eps = 1e-5)
      : BatchNormBase(channels, momentum, eps) {}

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override;
  std::string_view kind() const override { return "BatchNorm2d"; }
};

class BatchNorm1d final : public detail::BatchNormBase {
 public:
  explicit BatchNorm1d(std::int64_t features, double momentum = 0.1,
                       double eps = 1e-5)
      : BatchNormBase(features, momentum, eps) {}

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override;
  std::string_view kind() const override { return "BatchNorm1d"; }
};

}  // namespace snnsec::nn
