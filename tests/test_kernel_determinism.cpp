// Deterministic kernel selection (DESIGN.md §14): each GEMM-bearing layer
// takes its input kind (dense or events) from the operand's role when it
// is constructed and keeps it for life — and because no kernel choice ever
// depends on runtime data, batched and single-sample forwards are
// bit-identical for both kinds.
//
// The straddle tests pin down exactly the failure mode a per-call sparsity
// probe would have: an operand hovering at a 60% zero threshold, where
// different batch slices fall on different sides of the cut. A
// data-dependent dispatcher flips kernels between the batched call and the
// per-sample calls; a kernel fixed at construction cannot.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "snn/spiking_lenet.hpp"
#include "snn/spiking_network.hpp"
#include "tensor/spike_events.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace snnsec {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Batch whose OVERALL zero fraction straddles a 60% zero cut
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
  for (const nn::InputKind kind :
       {nn::InputKind::kDense, nn::InputKind::kEvents}) {
    util::Rng rng_w(97);  // same seed per kind -> identical weights
    nn::Linear fc(64, 10, rng_w, /*bias=*/true, kind);
    const Tensor yf = fc.forward(x, nn::Mode::kEval);
    Tensor xi(Shape{1, 64});
    for (std::int64_t i = 0; i < 8; ++i) {
      std::memcpy(xi.data(), x.data() + i * 64, 64 * sizeof(float));
      const Tensor yi = fc.forward(xi, nn::Mode::kEval);
      EXPECT_EQ(std::memcmp(yi.data(), yf.data() + i * 10,
                            10 * sizeof(float)),
                0)
          << "kind " << static_cast<int>(kind) << " row " << i
          << ": batched and single-sample logits differ — kernel choice "
             "leaked data dependence";
    }
  }
}

TEST(KernelDeterminism, InputKindsAgreeOnValues) {
  // Both kernels compute the same product; only the summation association
  // may differ. Near-threshold data must not change that.
  util::Rng rng_x(6);
  const Tensor x = straddle_batch(rng_x);
  std::vector<Tensor> ys;
  for (const nn::InputKind kind :
       {nn::InputKind::kDense, nn::InputKind::kEvents}) {
    util::Rng rng_w(98);
    nn::Linear fc(64, 10, rng_w, /*bias=*/true, kind);
    ys.push_back(fc.forward(x, nn::Mode::kEval));
  }
  for (std::size_t h = 1; h < ys.size(); ++h)
    for (std::int64_t i = 0; i < ys[0].numel(); ++i)
      ASSERT_NEAR(ys[h][i], ys[0][i], 1e-4f) << "kind " << h << " flat " << i;
}

TEST(KernelDeterminism, SpikingLenetOperandRoles) {
  // The builder is the one place that decides each layer's kernel: spike
  // slabs (encoder -> conv1, hidden LIF -> fc1/fc2) take the event kernels,
  // pooled rate maps (-> conv2/conv3) the dense one.
  nn::LenetSpec spec = nn::LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  util::Rng rng(52);
  const auto model = snn::build_spiking_lenet(spec, snn::SnnConfig{}, rng);
  std::vector<nn::InputKind> convs, fcs;
  for (std::size_t i = 0; i < model->net().size(); ++i) {
    nn::Layer& layer = model->net().layer(i);
    if (layer.kind() == "Conv2d")
      convs.push_back(static_cast<nn::Conv2d&>(layer).input_kind());
    else if (layer.kind() == "Linear")
      fcs.push_back(static_cast<nn::Linear&>(layer).input_kind());
  }
  using K = nn::InputKind;
  EXPECT_EQ(convs, (std::vector<K>{K::kEvents, K::kDense, K::kDense}));
  EXPECT_EQ(fcs, (std::vector<K>{K::kEvents, K::kEvents}));
}

TEST(KernelDeterminism, DenseLinearRejectsEventOperand) {
  // Event lists handed to a dense-input layer would be dead weight: the
  // layer throws instead of silently running a kernel it was not built for.
  util::Rng rng(53);
  nn::Linear fc(16, 4, rng);
  const Tensor x = Tensor::bernoulli(Shape{2, 16}, rng, 0.3);
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const tensor::EventRows ev =
      tensor::build_event_rows(x.data(), 16, 2, 16, ws);
  Tensor y;
  EXPECT_THROW(fc.forward_into_events(ev, y), util::Error);
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
