#include "nn/batchnorm.hpp"

#include <cmath>
#include <sstream>

namespace snnsec::nn {
namespace detail {

using tensor::Shape;
using tensor::Tensor;

BatchNormBase::BatchNormBase(std::int64_t num_features, double momentum,
                             double eps)
    : num_features_(num_features),
      momentum_(momentum),
      eps_(eps),
      gamma_("gamma", Tensor::ones(Shape{num_features})),
      beta_("beta", Tensor::zeros(Shape{num_features})),
      running_mean_(Shape{num_features}),
      running_var_(Shape{num_features}, 1.0f) {
  SNNSEC_CHECK(num_features > 0, "BatchNorm: num_features must be positive");
  SNNSEC_CHECK(momentum > 0.0 && momentum <= 1.0,
               "BatchNorm: momentum outside (0, 1]");
  SNNSEC_CHECK(eps > 0.0, "BatchNorm: eps must be positive");
}

std::vector<Parameter*> BatchNormBase::parameters() {
  return {&gamma_, &beta_};
}

void BatchNormBase::clear_cache() {
  x_hat_ = Tensor();
  inv_std_.clear();
  cached_mode_ = Mode::kEval;
}

Tensor BatchNormBase::forward_impl(const Tensor& x, Mode mode,
                                   std::int64_t channels, std::int64_t inner) {
  SNNSEC_CHECK(channels == num_features_,
               "BatchNorm: expected " << num_features_ << " channels, got "
                                      << channels);
  const std::int64_t n = x.dim(0);
  const std::int64_t m = n * inner;  // elements per channel
  SNNSEC_CHECK(m > 0, "BatchNorm: empty batch");

  // In train mode use batch statistics (and update running estimates);
  // otherwise (eval and attack) use the frozen running estimates — the
  // adversary sees the deployed network.
  const bool batch_stats = stochastic_enabled(mode);

  std::vector<float> mean(static_cast<std::size_t>(channels));
  std::vector<float> inv_std(static_cast<std::size_t>(channels));
  const float* px = x.data();
  if (batch_stats) {
    for (std::int64_t c = 0; c < channels; ++c) {
      double sum = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* row = px + (i * channels + c) * inner;
        for (std::int64_t j = 0; j < inner; ++j) sum += row[j];
      }
      const double mu = sum / static_cast<double>(m);
      double var = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* row = px + (i * channels + c) * inner;
        for (std::int64_t j = 0; j < inner; ++j) {
          const double d = row[j] - mu;
          var += d * d;
        }
      }
      var /= static_cast<double>(m);  // biased, as in inference-consistent BN
      mean[static_cast<std::size_t>(c)] = static_cast<float>(mu);
      inv_std[static_cast<std::size_t>(c)] =
          static_cast<float>(1.0 / std::sqrt(var + eps_));
      // Running estimates use the unbiased variance (PyTorch convention).
      const double unbiased =
          m > 1 ? var * static_cast<double>(m) / static_cast<double>(m - 1)
                : var;
      running_mean_[c] = static_cast<float>(
          (1.0 - momentum_) * running_mean_[c] + momentum_ * mu);
      running_var_[c] = static_cast<float>(
          (1.0 - momentum_) * running_var_[c] + momentum_ * unbiased);
    }
  } else {
    for (std::int64_t c = 0; c < channels; ++c) {
      mean[static_cast<std::size_t>(c)] = running_mean_[c];
      inv_std[static_cast<std::size_t>(c)] = static_cast<float>(
          1.0 / std::sqrt(static_cast<double>(running_var_[c]) + eps_));
    }
  }

  // Only the train backward reads the normalized input (dgamma and the
  // batch-statistics dx); eval and attack forwards never materialize it.
  Tensor y(x.shape());
  if (batch_stats) x_hat_ = Tensor(x.shape());
  float* py = y.data();
  float* ph = batch_stats ? x_hat_.data() : nullptr;
  const float* pg = gamma_.value.data();
  const float* pb = beta_.value.data();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t c = 0; c < channels; ++c) {
      const float mu = mean[static_cast<std::size_t>(c)];
      const float is = inv_std[static_cast<std::size_t>(c)];
      const std::int64_t base = (i * channels + c) * inner;
      for (std::int64_t j = 0; j < inner; ++j) {
        const float h = (px[base + j] - mu) * is;
        if (ph) ph[base + j] = h;
        py[base + j] = pg[c] * h + pb[c];
      }
    }

  if (cache_enabled(mode)) {
    inv_std_ = std::move(inv_std);
    cached_inner_ = inner;
    cached_batch_ = n;
    cached_mode_ = mode;
  }
  return y;
}

Tensor BatchNormBase::backward_impl(const Tensor& grad_out) {
  SNNSEC_CHECK(cache_enabled(cached_mode_),
               "BatchNorm::backward without cached forward");
  const std::int64_t channels = num_features_;
  const std::int64_t n = cached_batch_;
  const std::int64_t inner = cached_inner_;
  const std::int64_t m = n * inner;
  SNNSEC_CHECK(grad_out.ndim() >= 2 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == channels &&
                   grad_out.numel() == m * channels,
               "BatchNorm::backward: grad shape mismatch "
                   << grad_out.shape().to_string());

  const float* pdy = grad_out.data();
  const float* pg = gamma_.value.data();
  Tensor dx(grad_out.shape());
  float* pdx = dx.data();
  if (!param_grads_enabled(cached_mode_)) {
    // Frozen statistics (attack): the map is affine per element, and no
    // gamma/beta gradient is wanted.
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t c = 0; c < channels; ++c) {
        const float gis = pg[c] * inv_std_[static_cast<std::size_t>(c)];
        const std::int64_t base = (i * channels + c) * inner;
        for (std::int64_t j = 0; j < inner; ++j)
          pdx[base + j] = pdy[base + j] * gis;
      }
    return dx;
  }

  const float* ph = x_hat_.data();
  float* pdg = gamma_.grad.data();
  float* pdb = beta_.grad.data();

  // Per-channel reductions.
  std::vector<double> sum_dy(static_cast<std::size_t>(channels), 0.0);
  std::vector<double> sum_dy_h(static_cast<std::size_t>(channels), 0.0);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t c = 0; c < channels; ++c) {
      const std::int64_t base = (i * channels + c) * inner;
      for (std::int64_t j = 0; j < inner; ++j) {
        sum_dy[static_cast<std::size_t>(c)] += pdy[base + j];
        sum_dy_h[static_cast<std::size_t>(c)] +=
            static_cast<double>(pdy[base + j]) * ph[base + j];
      }
    }
  for (std::int64_t c = 0; c < channels; ++c) {
    pdg[c] += static_cast<float>(sum_dy_h[static_cast<std::size_t>(c)]);
    pdb[c] += static_cast<float>(sum_dy[static_cast<std::size_t>(c)]);
  }

  // Train: full coupled gradient through the batch statistics.
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t c = 0; c < channels; ++c) {
      const float gis = pg[c] * inv_std_[static_cast<std::size_t>(c)];
      const float s_dy =
          static_cast<float>(sum_dy[static_cast<std::size_t>(c)]);
      const float s_dyh =
          static_cast<float>(sum_dy_h[static_cast<std::size_t>(c)]);
      const std::int64_t base = (i * channels + c) * inner;
      for (std::int64_t j = 0; j < inner; ++j) {
        pdx[base + j] = gis * inv_m *
                        (static_cast<float>(m) * pdy[base + j] - s_dy -
                         ph[base + j] * s_dyh);
      }
    }
  return dx;
}

}  // namespace detail

using tensor::Tensor;

Tensor BatchNorm2d::forward(const Tensor& x, Mode mode) {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  return forward_impl(x, mode, x.dim(1), x.dim(2) * x.dim(3));
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out);
}

std::string BatchNorm2d::name() const {
  std::ostringstream oss;
  oss << "BatchNorm2d(" << num_features_ << ")";
  return oss.str();
}

Tensor BatchNorm1d::forward(const Tensor& x, Mode mode) {
  SNNSEC_CHECK(x.ndim() == 2, name() << ": expects [N,F], got "
                                     << x.shape().to_string());
  return forward_impl(x, mode, x.dim(1), 1);
}

Tensor BatchNorm1d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out);
}

std::string BatchNorm1d::name() const {
  std::ostringstream oss;
  oss << "BatchNorm1d(" << num_features_ << ")";
  return oss.str();
}

}  // namespace snnsec::nn
