// Classifier: the model interface shared by the CNN baseline and the SNN.
//
// Everything downstream — the attack library, Algorithm 1's explorer, the
// trainer, the figure harnesses — programs against this interface, so the
// paper's CNN-vs-SNN comparisons are one-liners.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::nn {

class Classifier {
 public:
  virtual ~Classifier() = default;

  Classifier() = default;
  Classifier(const Classifier&) = delete;
  Classifier& operator=(const Classifier&) = delete;

  /// Inference: images [N, C, H, W] -> logits [N, classes].
  virtual tensor::Tensor logits(const tensor::Tensor& x) = 0;

  /// White-box gradient of the mean cross-entropy loss w.r.t. the input
  /// pixels, evaluated with inference semantics (Mode::kAttack). This is
  /// the quantity PGD/FGSM ascend. `loss_out` (optional) receives the loss.
  /// Attack mode computes dL/dx only: no Parameter::grad is touched, and
  /// the result is bit-identical to the dx of a Mode::kTrain backward.
  virtual tensor::Tensor input_gradient(const tensor::Tensor& x,
                                        const std::vector<std::int64_t>& labels,
                                        double* loss_out = nullptr) = 0;

  /// General vector-Jacobian product at the logits: returns
  /// d<cotangent, logits(x)>/dx with inference semantics (Mode::kAttack),
  /// leaving every Parameter::grad untouched. cotangent is [N, classes].
  /// This is the primitive decision-boundary attacks (DeepFool) build
  /// per-class gradients from.
  virtual tensor::Tensor output_gradient(const tensor::Tensor& x,
                                         const tensor::Tensor& cotangent) = 0;

  /// One optimization step on a mini-batch; returns the batch loss.
  virtual double train_batch(const tensor::Tensor& x,
                             const std::vector<std::int64_t>& labels,
                             Optimizer& optimizer) = 0;

  virtual std::vector<Parameter*> parameters() = 0;
  virtual std::int64_t num_classes() const = 0;
  virtual std::string describe() const = 0;

  /// Argmax class predictions (non-virtual convenience).
  std::vector<std::int64_t> predict(const tensor::Tensor& x);
};

}  // namespace snnsec::nn
