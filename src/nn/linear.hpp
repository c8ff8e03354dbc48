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
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
         bool bias = true);

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;

  /// Allocation-free eval forward: writes x W^T + b into `y`, reallocating
  /// only when the output geometry changes. Does not touch the backward
  /// cache, so it is safe on the serving hot path; numerics are bit-identical
  /// to forward() (same kernel entry points, beta = 0 overwrite path).
  void forward_into(const tensor::Tensor& x, tensor::Tensor& y);

  /// Event-path forward for callers that already hold the input's event
  /// lists (AnytimeRunner builds them once per time slab where the spikes
  /// are produced). `ev` must describe a [N, in_features] operand. Requires
  /// the layer to be resolved to kEvents; bit-identical to forward_into on
  /// the equivalent dense tensor (same per-row kernel, same event order).
  void forward_into_events(const tensor::EventRows& ev, tensor::Tensor& y);

  /// Declare how this layer's input operand is populated (kDense default;
  /// kSparse for spike slabs through the zero-skip kernel; kEvents for the
  /// fully event-driven path). Resolution is STICKY: it must happen before
  /// the first forward and never flips afterwards — kernel choice for a
  /// (layer, operand role) is identical across batch sizes and call counts,
  /// the determinism contract serve and detection are built on. Throws
  /// util::Error if called after the layer has run.
  void set_input_hint(tensor::SparsityHint hint);
  tensor::SparsityHint input_hint() const { return input_hint_; }

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
  void resolve_kernel();  ///< first-forward latch + tensor.gemm.kernel metric
  void add_bias(tensor::Tensor& y) const;

  std::int64_t in_features_;
  std::int64_t out_features_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  tensor::SparsityHint input_hint_ = tensor::SparsityHint::kDense;
  bool kernel_resolved_ = false;  ///< set at first forward; hint frozen after
  tensor::Tensor cached_input_;     ///< kTrain only: dW = dY^T X reads it
  std::int64_t cached_rows_ = 0;    ///< batch rows of the cached forward
  Mode cached_mode_ = Mode::kEval;  ///< kEval: nothing cached
};

}  // namespace snnsec::nn
