// Deterministic kernel selection (DESIGN.md §14): hints are declared from
// operand role, resolved once per layer, sticky for the layer's lifetime —
// and because no kernel choice ever depends on runtime data, batched and
// single-sample forwards are bit-identical for every hint.
//
// The straddle tests pin down exactly the failure mode the old per-call
// probe had: an operand hovering at the 60% zero threshold, where different
// batch slices fall on different sides of the cut. A data-dependent
// dispatcher flips kernels between the batched call and the per-sample
// calls; sticky resolution cannot.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "snn/spiking_lenet.hpp"
#include "snn/spiking_network.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace snnsec {
namespace {

using tensor::Shape;
using tensor::SparsityHint;
using tensor::Tensor;

/// Batch whose OVERALL zero fraction straddles the old probe's 60% cut
/// while individual rows range from fully silent to fully dense: row i of 8
/// has its first 8*i of 64 features zeroed. Rows 0-4 are <60% zeros (dense
/// verdict alone), rows 5-7 are >=62% (sparse verdict alone).
Tensor straddle_batch(util::Rng& rng) {
  Tensor x = Tensor::rand_uniform(Shape{8, 64}, rng, 0.5f, 1.5f);
  float* p = x.data();
  for (std::int64_t i = 0; i < 8; ++i)
    for (std::int64_t j = 0; j < 8 * i; ++j) p[i * 64 + j] = 0.0f;
  return x;
}

TEST(KernelDeterminism, StraddlingOperandBatchedVsSingleBitIdentical) {
  util::Rng rng_x(5);
  const Tensor x = straddle_batch(rng_x);
  for (const SparsityHint hint :
       {SparsityHint::kDense, SparsityHint::kSparse, SparsityHint::kEvents}) {
    util::Rng rng_w(97);  // same seed per hint -> identical weights
    nn::Linear fc(64, 10, rng_w);
    fc.set_input_hint(hint);
    const Tensor yf = fc.forward(x, nn::Mode::kEval);
    Tensor xi(Shape{1, 64});
    for (std::int64_t i = 0; i < 8; ++i) {
      std::memcpy(xi.data(), x.data() + i * 64, 64 * sizeof(float));
      const Tensor yi = fc.forward(xi, nn::Mode::kEval);
      EXPECT_EQ(std::memcmp(yi.data(), yf.data() + i * 10,
                            10 * sizeof(float)),
                0)
          << "hint " << static_cast<int>(hint) << " row " << i
          << ": batched and single-sample logits differ — kernel choice "
             "leaked data dependence";
    }
  }
}

TEST(KernelDeterminism, HintsAgreeOnValues) {
  // All three kernels compute the same product; only the summation
  // association may differ. Near-threshold data must not change that.
  util::Rng rng_x(6);
  const Tensor x = straddle_batch(rng_x);
  std::vector<Tensor> ys;
  for (const SparsityHint hint :
       {SparsityHint::kDense, SparsityHint::kSparse, SparsityHint::kEvents}) {
    util::Rng rng_w(98);
    nn::Linear fc(64, 10, rng_w);
    fc.set_input_hint(hint);
    ys.push_back(fc.forward(x, nn::Mode::kEval));
  }
  for (std::size_t h = 1; h < ys.size(); ++h)
    for (std::int64_t i = 0; i < ys[0].numel(); ++i)
      ASSERT_NEAR(ys[h][i], ys[0][i], 1e-4f) << "hint " << h << " flat " << i;
}

TEST(KernelDeterminism, ResolutionIsSticky) {
  // Once a layer has run, its kernel is latched: re-hinting must throw
  // (mid-run flips are exactly what the probe removal forbids).
  util::Rng rng(51);
  nn::Linear fc(16, 4, rng);
  const Tensor x = Tensor::randn(Shape{2, 16}, rng);
  (void)fc.forward(x, nn::Mode::kEval);
  EXPECT_THROW(fc.set_input_hint(SparsityHint::kSparse), util::Error);

  nn::Conv2d conv(nn::Conv2dSpec{1, 2, 3, 1, 1}, rng);
  const Tensor xc = Tensor::randn(Shape{1, 1, 6, 6}, rng);
  (void)conv.forward(xc, nn::Mode::kEval);
  EXPECT_THROW(conv.set_input_hint(SparsityHint::kEvents), util::Error);
}

TEST(KernelDeterminism, ConvRejectsRowSparseHint) {
  // Conv's GEMM puts the spike operand on the column side, where the
  // row-skip kernel cannot see the sparsity — accepting the hint would
  // silently run dense. It must be rejected loudly instead.
  util::Rng rng(53);
  nn::Conv2d conv(nn::Conv2dSpec{1, 2, 3, 1, 1}, rng);
  EXPECT_THROW(conv.set_input_hint(SparsityHint::kSparse), util::Error);
}

/// Full-model batched-vs-single bit-identity. Every stage — encoder, event
/// conv, LIF state updates, pooled dense convs, event fc layers, readout —
/// processes samples independently with a fixed per-sample operation
/// order, so slicing the batch must not change any logit bit.
TEST(KernelDeterminism, SpikingLenetLifBatchedVsSingleBitIdentical) {
  const std::uint64_t seed = 61;
  nn::LenetSpec spec;
  spec.image_size = 8;
  spec.num_classes = 4;
  spec.conv1_channels = 2;
  spec.conv2_channels = 3;
  spec.conv3_channels = 4;
  spec.fc_hidden = 12;
  snn::SnnConfig config;
  config.time_steps = 6;
  util::Rng rng(seed);
  auto net = snn::build_spiking_lenet(spec, config, rng);

  util::Rng rng_x(seed + 1);
  const Tensor x = Tensor::rand_uniform(Shape{3, 1, 8, 8}, rng_x, 0.0f, 1.0f);
  const Tensor yf = net->logits(x);
  ASSERT_EQ(yf.dim(0), 3);
  Tensor xi(Shape{1, 1, 8, 8});
  for (std::int64_t i = 0; i < 3; ++i) {
    std::memcpy(xi.data(), x.data() + i * 64, 64 * sizeof(float));
    const Tensor yi = net->logits(xi);
    EXPECT_EQ(std::memcmp(yi.data(), yf.data() + i * yf.dim(1),
                          static_cast<std::size_t>(yf.dim(1)) * sizeof(float)),
              0)
        << "sample " << i << " logits differ between batch sizes";
  }
}

}  // namespace
}  // namespace snnsec
