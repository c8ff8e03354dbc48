#include "snn/surrogate.hpp"

#include <cmath>
#include <sstream>

namespace snnsec::snn {

float Surrogate::grad(float u) const {
  switch (kind) {
    case SurrogateKind::kSuperSpike:
      return super_spike_grad(alpha, u);
    case SurrogateKind::kTriangle: {
      const float v = 1.0f - alpha * std::fabs(u);
      return v > 0.0f ? v : 0.0f;
    }
    case SurrogateKind::kSigmoidDeriv: {
      const float s = 1.0f / (1.0f + std::exp(-alpha * u));
      return alpha * s * (1.0f - s);
    }
    case SurrogateKind::kStraightThrough:
      return std::fabs(u) < 0.5f / alpha ? 1.0f : 0.0f;
  }
  return 0.0f;
}

std::string Surrogate::to_string() const {
  std::ostringstream oss;
  switch (kind) {
    case SurrogateKind::kSuperSpike: oss << "SuperSpike"; break;
    case SurrogateKind::kTriangle: oss << "Triangle"; break;
    case SurrogateKind::kSigmoidDeriv: oss << "SigmoidDeriv"; break;
    case SurrogateKind::kStraightThrough: oss << "StraightThrough"; break;
  }
  oss << "(alpha=" << alpha << ")";
  return oss.str();
}

}  // namespace snnsec::snn
