// 2-D convolution (cross-correlation, PyTorch convention) lowered to one
// GEMM per call with an implicit im2col.
//
// Input  : [N, Cin, H, W]
// Weight : stored as a [Cout, Cin*KH*KW] GEMM-ready matrix
// Output : [N, Cout, OH, OW]
//
// There is one dense lowering, used by every mode: W times the
// [Cin*KH*KW, N*OH*OW] column matrix of the whole batch, whose GEMM panels
// are packed straight from the input (tensor::gemm_conv_raw) — no column
// matrix is ever built — then a fused bias-add scatters the rows back into
// batch order. An InputKind::kEvents layer runs its eval forwards on the
// event path instead (spike inputs, conv_events). A train backward packs
// columnsᵀ from a cached copy of the input for the weight gradient; every
// backward computes the input gradient col2im(Wᵀ·G) per sample straight
// into the image, reading the upstream gradient in place
// (tensor::conv_input_grad, no column matrix) — the input gradient is what
// white-box attacks differentiate through, and an attack backward computes
// nothing else.
#pragma once

#include "nn/layer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace snnsec::nn {

struct Conv2dSpec {
  std::int64_t in_channels = 1;
  std::int64_t out_channels = 1;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};

class Conv2d final : public Layer {
 public:
  /// `input` picks the eval forward's kernel for the layer's life: kDense
  /// (implicit im2col + blocked GEMM) or kEvents (scatter of W rows per
  /// input spike). Train and attack forwards always take the dense lowering,
  /// so attack numerics stay bit-identical to the train-mode input gradient:
  /// one fixed kernel per (layer, mode), never data-probed.
  Conv2d(Conv2dSpec spec, util::Rng& rng, bool bias = true,
         InputKind input = InputKind::kDense);

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;

  /// Allocation-free forward: writes into `y`, reshaping it only when the
  /// output geometry changes. Every scratch buffer (padded input, packed
  /// panels, GEMM output) comes from the per-thread util::Workspace; in
  /// train mode the input copy the weight gradient needs lives in a member
  /// buffer reused across calls of the same shape. So the steady state
  /// performs zero heap allocations in every mode.
  void forward_into(const tensor::Tensor& x, tensor::Tensor& y, Mode mode);

  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::string_view kind() const override { return "Conv2d"; }
  void clear_cache() override;

  const Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  InputKind input_kind() const { return input_; }

  /// Output spatial size for a given input size.
  std::int64_t out_size(std::int64_t in_size) const {
    return (in_size + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  }

 private:
  tensor::ConvGeometry geometry(std::int64_t h, std::int64_t w) const;
  void forward_events(const tensor::Tensor& x, tensor::Tensor& y,
                      const tensor::ConvGeometry& g);

  Conv2dSpec spec_;
  bool has_bias_;
  InputKind input_;
  Parameter weight_;  // [Cout, Cin*K*K]
  Parameter bias_;    // [Cout]

  // forward cache
  tensor::Tensor cached_input_;  // [N, Cin, H, W]; read by kTrain only
  tensor::ConvGeometry cached_geom_{};
  std::int64_t cached_batch_ = 0;
  Mode cached_mode_ = Mode::kEval;  ///< kEval: nothing cached
};

}  // namespace snnsec::nn
