// Layer: the unit of composition for feed-forward networks.
//
// snnsec uses layer-local manual backprop instead of a global autograd tape:
// each layer caches during forward() exactly what its backward() needs, and
// backward() returns the gradient w.r.t. its input — after a kTrain forward
// it also accumulates parameter gradients. The chain rule across a network
// is then a simple reverse iteration (see Sequential). Correctness is
// enforced by finite-difference gradient-check tests, including the input
// gradient that white-box attacks consume.
//
// Contract:
//  * backward() must be called at most once per forward(), with a gradient
//    shaped like that forward()'s output.
//  * The forward's mode decides what backward() computes: kTrain caches for
//    and accumulates dL/d(params) as well as returning dL/d(input); kAttack
//    caches only what dL/d(input) needs and leaves every Parameter::grad
//    untouched. dL/d(input) is bit-identical between the two.
//  * Layers own their Parameters; parameters() exposes stable pointers.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::nn {

/// Forward-pass mode:
///  kTrain  — cache for backward (input and parameter gradients).
///  kEval   — no caching, deterministic inference.
///  kAttack — cache for the input gradient only (white-box attacks), with
///            inference semantics: backward() accumulates no parameter
///            gradients.
enum class Mode { kTrain, kEval, kAttack };

constexpr bool cache_enabled(Mode m) { return m != Mode::kEval; }
constexpr bool stochastic_enabled(Mode m) { return m == Mode::kTrain; }
constexpr bool param_grads_enabled(Mode m) { return m == Mode::kTrain; }

/// How a GEMM-bearing layer's (Linear, Conv2d) input is populated, fixed
/// at construction from the operand's role, never probed from its data:
///  kDense  — any values: the blocked dense kernel (tensor/gemm.hpp).
///  kEvents — spike slabs: the event kernels (tensor/spike_events.hpp).
enum class InputKind { kDense, kEvents };

class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Compute the layer output; in kTrain/kAttack mode, cache what that
  /// mode's backward() needs.
  virtual tensor::Tensor forward(const tensor::Tensor& x, Mode mode) = 0;

  /// Given dL/d(output), return dL/d(input). After a kTrain forward() this
  /// also accumulates dL/d(params) into Parameter::grad; after a kAttack
  /// forward() it touches no Parameter::grad. Invalid after a kEval
  /// forward(), which caches nothing.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Human-readable layer description, e.g. "Conv2d(1->6, 5x5)".
  virtual std::string name() const = 0;

  /// Stable serialization identity, e.g. "Conv2d" — no instance parameters.
  /// Every kind must appear in the serialization registry
  /// (src/nn/layer_registry.cpp); checkpoints fingerprint the kind sequence
  /// so a file can never be deserialized into a different architecture.
  /// Enforced statically by snnsec_lint rule snnsec-layer-contract.
  virtual std::string_view kind() const = 0;

  /// Drop forward caches (frees memory between experiments).
  virtual void clear_cache() {}
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace snnsec::nn
