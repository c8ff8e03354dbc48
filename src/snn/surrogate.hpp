// Surrogate gradients for the non-differentiable spike threshold.
//
// The forward spike is the exact Heaviside step z = H(v - v_th); the
// backward pass substitutes a smooth pseudo-derivative dz/dv = sg(v - v_th).
// SuperSpike (Zenke & Ganguli 2018) is Norse's default and the one the
// paper trained with; the alternatives feed the surrogate ablation bench.
#pragma once

#include <cmath>
#include <string>

namespace snnsec::snn {

enum class SurrogateKind {
  kSuperSpike,       ///< 1 / (1 + alpha*|u|)^2
  kTriangle,         ///< max(0, 1 - alpha*|u|)
  kSigmoidDeriv,     ///< s(1-s)*alpha with s = sigmoid(alpha*u)
  kStraightThrough,  ///< 1 when |u| < 1/(2*alpha), else 0
};

struct Surrogate {
  SurrogateKind kind = SurrogateKind::kSuperSpike;
  /// Slope/steepness. Norse's SuperSpike default is 100; smaller values
  /// widen the gradient support and generally ease CPU-scale training
  /// (ablated in bench/ablation_surrogate).
  float alpha = 10.0f;

  /// Pseudo-derivative at membrane distance u = v - v_th.
  float grad(float u) const;

  /// Calls `body(g)` once, with g a callable `float g(float u)` equal to
  /// grad(u). For SuperSpike (the default and the paper's choice) g is the
  /// inlined formula, so a BPTT loop written in `body` has no call or kind
  /// switch per neuron-step and vectorizes; the ablation kinds get grad()
  /// itself.
  template <class Body>
  void with_grad(Body&& body) const;

  std::string to_string() const;
};

/// SuperSpike's pseudo-derivative, shared by Surrogate::grad and with_grad.
inline float super_spike_grad(float alpha, float u) {
  const float d = 1.0f + alpha * std::fabs(u);
  return 1.0f / (d * d);
}

template <class Body>
void Surrogate::with_grad(Body&& body) const {
  if (kind == SurrogateKind::kSuperSpike) {
    const float a = alpha;
    body([a](float u) { return super_spike_grad(a, u); });
  } else {
    body([this](float u) { return grad(u); });
  }
}

}  // namespace snnsec::snn
