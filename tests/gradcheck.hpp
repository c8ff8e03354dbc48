// Shared finite-difference gradient-check helper for layer tests.
//
// For a layer f and a fixed random cotangent w, define the scalar
// L(x) = <w, f(x)>. The analytic input gradient is backward(w); the
// numeric one is central differences on L. Parameter gradients are checked
// the same way by perturbing Parameter::value entries.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "nn/layer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace snnsec::testutil {

inline double dot(const tensor::Tensor& a, const tensor::Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

/// Same shape and the same bytes — the bit-identity the attack-mode and
/// kernel-determinism contracts promise.
inline bool bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// Relative-ish error with absolute floor: |a-b| / max(1, |a|, |b|).
inline double grad_error(double a, double b) {
  return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Check dL/dx of `layer` at input `x` against central differences.
/// Checks every input coordinate when numel <= 64, else a strided subset.
inline void check_input_gradient(nn::Layer& layer, const tensor::Tensor& x,
                                 util::Rng& rng, double step = 1e-2,
                                 double tol = 2e-2) {
  const tensor::Tensor y0 = layer.forward(x, nn::Mode::kTrain);
  const tensor::Tensor w = tensor::Tensor::randn(y0.shape(), rng);
  const tensor::Tensor analytic = layer.backward(w);
  ASSERT_EQ(analytic.shape(), x.shape());

  const std::int64_t n = x.numel();
  const std::int64_t stride = n <= 64 ? 1 : n / 48;
  for (std::int64_t i = 0; i < n; i += stride) {
    tensor::Tensor xp = x;
    xp[i] += static_cast<float>(step);
    tensor::Tensor xm = x;
    xm[i] -= static_cast<float>(step);
    const double lp = dot(w, layer.forward(xp, nn::Mode::kEval));
    const double lm = dot(w, layer.forward(xm, nn::Mode::kEval));
    const double numeric = (lp - lm) / (2.0 * step);
    EXPECT_LT(grad_error(numeric, analytic[i]), tol)
        << "input coord " << i << ": numeric " << numeric << " vs analytic "
        << analytic[i];
  }
}

/// Check dL/dθ for every parameter of `layer` against central differences.
inline void check_parameter_gradients(nn::Layer& layer,
                                      const tensor::Tensor& x,
                                      util::Rng& rng, double step = 1e-2,
                                      double tol = 2e-2) {
  const tensor::Tensor y0 = layer.forward(x, nn::Mode::kTrain);
  const tensor::Tensor w = tensor::Tensor::randn(y0.shape(), rng);
  for (nn::Parameter* p : layer.parameters()) p->zero_grad();
  (void)layer.backward(w);

  for (nn::Parameter* p : layer.parameters()) {
    const std::int64_t n = p->value.numel();
    const std::int64_t stride = n <= 64 ? 1 : n / 32;
    for (std::int64_t i = 0; i < n; i += stride) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(step);
      const double lp = dot(w, layer.forward(x, nn::Mode::kEval));
      p->value[i] = saved - static_cast<float>(step);
      const double lm = dot(w, layer.forward(x, nn::Mode::kEval));
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2.0 * step);
      EXPECT_LT(grad_error(numeric, p->grad[i]), tol)
          << p->name << " coord " << i << ": numeric " << numeric
          << " vs analytic " << p->grad[i];
    }
  }
}

}  // namespace snnsec::testutil
