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
// batch order. Eval mode may instead resolve to the event path (spike
// inputs, conv_events). A train backward packs columnsᵀ from a cached copy
// of the input for the weight gradient; every backward computes the input
// gradient col2im(Wᵀ·G) per sample straight into the image, reading the
// upstream gradient in place (tensor::conv_input_grad, no column matrix)
// — the input gradient is what white-box attacks differentiate through,
// and an attack backward computes nothing else.
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
  Conv2d(Conv2dSpec spec, util::Rng& rng, bool bias = true);

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

  /// Declare how this layer's input operand is populated. Conv resolves to
  /// kDense (implicit im2col + blocked GEMM, the default) or kEvents
  /// (scatter of W rows per input spike, spike inputs); kSparse is
  /// rejected — in the im2col lowering the spike sparsity sits in the B
  /// operand where the zero-skip row kernel cannot reach it. Resolution is
  /// STICKY (must precede the first forward, never flips afterwards; throws
  /// util::Error otherwise). The event path runs in eval mode only: train
  /// and attack forwards keep the dense lowering so attack numerics stay
  /// bit-identical to the train-mode input gradient — still one fixed
  /// kernel per (layer, mode), never data-probed.
  void set_input_hint(tensor::SparsityHint hint);
  tensor::SparsityHint input_hint() const { return input_hint_; }

  /// Output spatial size for a given input size.
  std::int64_t out_size(std::int64_t in_size) const {
    return (in_size + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  }

 private:
  tensor::ConvGeometry geometry(std::int64_t h, std::int64_t w) const;
  void resolve_kernel();  ///< first-forward latch + tensor.gemm.kernel metric
  void forward_events(const tensor::Tensor& x, tensor::Tensor& y,
                      const tensor::ConvGeometry& g);

  Conv2dSpec spec_;
  bool has_bias_;
  tensor::SparsityHint input_hint_ = tensor::SparsityHint::kDense;
  bool kernel_resolved_ = false;  ///< set at first forward; hint frozen after
  Parameter weight_;  // [Cout, Cin*K*K]
  Parameter bias_;    // [Cout]

  // forward cache
  tensor::Tensor cached_input_;  // [N, Cin, H, W]; read by kTrain only
  tensor::ConvGeometry cached_geom_{};
  std::int64_t cached_batch_ = 0;
  Mode cached_mode_ = Mode::kEval;  ///< kEval: nothing cached
};

}  // namespace snnsec::nn
