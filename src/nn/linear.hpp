// Fully-connected layer: y = x W^T + b.
#pragma once

#include "nn/layer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/spike_events.hpp"
#include "util/rng.hpp"

namespace snnsec::nn {

class Linear final : public Layer {
 public:
  /// Weight [out_features, in_features] Kaiming-uniform, bias [out_features].
  /// `input` picks the forward kernel for the layer's life: kDense runs the
  /// blocked GEMM, kEvents the event kernel on spike inputs. One kernel per
  /// layer means batch sizes and call counts never change which kernel
  /// runs, the determinism contract serve and detection are built on.
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
         bool bias = true, InputKind input = InputKind::kDense);

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;

  /// Allocation-free eval forward: writes x W^T + b into `y`, reallocating
  /// only when the output geometry changes. Does not touch the backward
  /// cache, so it is safe on the serving hot path; numerics are bit-identical
  /// to forward() (same kernel entry points, beta = 0 overwrite path).
  void forward_into(const tensor::Tensor& x, tensor::Tensor& y);

  /// Event-path forward for callers that already hold the input's event
  /// lists (AnytimeRunner builds them once per time slab where the spikes
  /// are produced). `ev` must describe a [N, in_features] operand. Requires
  /// an InputKind::kEvents layer; bit-identical to forward_into on the
  /// equivalent dense tensor (same per-row kernel, same event order).
  void forward_into_events(const tensor::EventRows& ev, tensor::Tensor& y);

  InputKind input_kind() const { return input_; }

  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::string_view kind() const override { return "Linear"; }
  void clear_cache() override {
    cached_input_ = tensor::Tensor();
    cached_mode_ = Mode::kEval;
  }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  void add_bias(tensor::Tensor& y) const;

  std::int64_t in_features_;
  std::int64_t out_features_;
  bool has_bias_;
  InputKind input_;
  Parameter weight_;
  Parameter bias_;
  tensor::Tensor cached_input_;     ///< kTrain only: dW = dY^T X reads it
  std::int64_t cached_rows_ = 0;    ///< batch rows of the cached forward
  Mode cached_mode_ = Mode::kEval;  ///< kEval: nothing cached
};

}  // namespace snnsec::nn
