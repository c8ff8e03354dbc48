// Spatial pooling layers over [N, C, H, W] tensors.
//
// AvgPool2d is the pooling used inside the spiking network (averaging spike
// counts keeps the surrogate-gradient path smooth). It implements only the
// 2x2, stride-2 window the spiking LeNet uses and rejects any other kernel
// or stride when it runs. MaxPool2d is provided for the CNN baseline and
// caches argmax positions for exact backward routing.
#pragma once

#include "nn/layer.hpp"

namespace snnsec::nn {

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::int64_t kernel, std::int64_t stride = -1);

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;

  /// Allocation-free eval forward: pools into `y`, reallocating only when
  /// the output geometry changes. Shares the pooling kernel with
  /// forward(), so results are bit-identical; does not touch the backward
  /// geometry cache (serving hot path).
  void forward_into(const tensor::Tensor& x, tensor::Tensor& y) const;

  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override;
  std::string_view kind() const override { return "AvgPool2d"; }
  void clear_cache() override {}

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
  // geometry cache for backward
  std::int64_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
  bool have_cache_ = false;
};

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::int64_t kernel, std::int64_t stride = -1);

  tensor::Tensor forward(const tensor::Tensor& x, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override;
  std::string_view kind() const override { return "MaxPool2d"; }
  void clear_cache() override { argmax_.clear(); }

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
  bool have_cache_ = false;
};

}  // namespace snnsec::nn
