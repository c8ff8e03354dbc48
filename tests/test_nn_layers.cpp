// Forward semantics of every nn layer.
#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/layer_registry.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"

namespace snnsec::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Linear, ComputesXWTPlusB) {
  util::Rng rng(1);
  Linear lin(3, 2, rng);
  // Overwrite params with known values.
  lin.weight().value = Tensor::from_vector(Shape{2, 3}, {1, 0, -1, 2, 1, 0});
  lin.bias().value = Tensor::from_vector(Shape{2}, {0.5f, -0.5f});
  const Tensor x = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 0, 1, 0});
  const Tensor y = lin.forward(x, Mode::kEval);
  // row0: [1-3+0.5, 2+2-0.5] = [-1.5, 3.5]; row1: [0.5, 0.5]
  EXPECT_TRUE(y.allclose(Tensor::from_vector(Shape{2, 2}, {-1.5f, 3.5f, 0.5f, 0.5f})));
}

TEST(Linear, NoBiasVariant) {
  util::Rng rng(2);
  Linear lin(2, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  lin.weight().value = Tensor::from_vector(Shape{2, 2}, {1, 0, 0, 1});
  const Tensor x = Tensor::from_vector(Shape{1, 2}, {3, 4});
  EXPECT_TRUE(lin.forward(x, Mode::kEval).allclose(x));
}

TEST(Linear, RejectsWrongInputWidth) {
  util::Rng rng(3);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin.forward(Tensor(Shape{1, 4}), Mode::kEval), util::Error);
  EXPECT_THROW(lin.forward(Tensor(Shape{3}), Mode::kEval), util::Error);
}

TEST(Linear, BackwardRequiresCachedForward) {
  util::Rng rng(4);
  Linear lin(2, 2, rng);
  EXPECT_THROW(lin.backward(Tensor(Shape{1, 2})), util::Error);
  lin.forward(Tensor(Shape{1, 2}), Mode::kEval);  // eval does not cache
  EXPECT_THROW(lin.backward(Tensor(Shape{1, 2})), util::Error);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  util::Rng rng(5);
  Conv2d conv(Conv2dSpec{1, 1, 3, 1, 1}, rng, /*bias=*/false);
  conv.weight().value.zero_();
  conv.weight().value[4] = 1.0f;  // center tap of the 3x3 kernel
  util::Rng drng(6);
  const Tensor x = Tensor::randn(Shape{2, 1, 5, 5}, drng);
  EXPECT_TRUE(conv.forward(x, Mode::kEval).allclose(x, 1e-5f));
}

TEST(Conv2d, KnownAverageKernel) {
  util::Rng rng(7);
  Conv2d conv(Conv2dSpec{1, 1, 2, 2, 0}, rng, /*bias=*/false);
  conv.weight().value = Tensor::full(Shape{1, 4}, 0.25f);
  const Tensor x = Tensor::from_vector(
      Shape{1, 1, 2, 2}, {1, 3, 5, 7});
  const Tensor y = conv.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(Conv2d, BiasAddsPerChannel) {
  util::Rng rng(8);
  Conv2d conv(Conv2dSpec{1, 2, 1, 1, 0}, rng);
  conv.weight().value = Tensor::from_vector(Shape{2, 1}, {1, 2});
  conv.bias().value = Tensor::from_vector(Shape{2}, {10, 20});
  const Tensor x = Tensor::from_vector(Shape{1, 1, 1, 2}, {1, 2});
  const Tensor y = conv.forward(x, Mode::kEval);
  EXPECT_TRUE(y.allclose(
      Tensor::from_vector(Shape{1, 2, 1, 2}, {11, 12, 22, 24})));
}

TEST(Conv2d, OutputShape) {
  util::Rng rng(9);
  Conv2d conv(Conv2dSpec{3, 8, 5, 1, 2}, rng);
  const Tensor y = conv.forward(Tensor(Shape{4, 3, 16, 16}), Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({4, 8, 16, 16}));
  EXPECT_EQ(conv.out_size(16), 16);
}

TEST(Conv2d, RejectsWrongChannels) {
  util::Rng rng(10);
  Conv2d conv(Conv2dSpec{3, 8, 3, 1, 1}, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8}), Mode::kEval),
               util::Error);
}

TEST(AvgPool2d, AveragesWindows) {
  AvgPool2d pool(2);
  const Tensor x =
      Tensor::from_vector(Shape{1, 1, 2, 4}, {1, 3, 5, 7, 2, 4, 6, 8});
  const Tensor y = pool.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(MaxPool2d, TakesWindowMaxAndRoutesGradient) {
  MaxPool2d pool(2);
  const Tensor x =
      Tensor::from_vector(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  const Tensor y = pool.forward(x, Mode::kTrain);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  const Tensor dx = pool.backward(Tensor::ones(Shape{1, 1, 1, 1}));
  EXPECT_TRUE(dx.allclose(Tensor::from_vector(Shape{1, 1, 2, 2}, {0, 1, 0, 0})));
}

TEST(Pooling, RejectsTooSmallInput) {
  AvgPool2d pool(4);
  EXPECT_THROW(pool.forward(Tensor(Shape{1, 1, 2, 2}), Mode::kEval),
               util::Error);
}

TEST(ReLU, ForwardAndMask) {
  ReLU relu;
  const Tensor x = Tensor::from_vector(Shape{4}, {-1, 0, 0.5f, 2});
  const Tensor y = relu.forward(x, Mode::kTrain);
  EXPECT_TRUE(y.allclose(Tensor::from_vector(Shape{4}, {0, 0, 0.5f, 2})));
  const Tensor dx = relu.backward(Tensor::ones(Shape{4}));
  EXPECT_TRUE(dx.allclose(Tensor::from_vector(Shape{4}, {0, 0, 1, 1})));
}

TEST(Scale, MultipliesForwardAndBackward) {
  Scale s(3.0f);
  const Tensor x = Tensor::from_vector(Shape{2}, {1, -2});
  EXPECT_TRUE(s.forward(x, Mode::kEval)
                  .allclose(Tensor::from_vector(Shape{2}, {3, -6})));
  EXPECT_TRUE(s.backward(Tensor::ones(Shape{2}))
                  .allclose(Tensor::full(Shape{2}, 3.0f)));
}

TEST(SigmoidTanh, RangeAndFixedPoints) {
  Sigmoid sig;
  Tanh tanh_layer;
  const Tensor x = Tensor::from_vector(Shape{3}, {-10, 0, 10});
  const Tensor ys = sig.forward(x, Mode::kEval);
  EXPECT_NEAR(ys[0], 0.0f, 1e-4f);
  EXPECT_FLOAT_EQ(ys[1], 0.5f);
  EXPECT_NEAR(ys[2], 1.0f, 1e-4f);
  const Tensor yt = tanh_layer.forward(x, Mode::kEval);
  EXPECT_NEAR(yt[0], -1.0f, 1e-4f);
  EXPECT_FLOAT_EQ(yt[1], 0.0f);
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten f;
  const Tensor x = Tensor::arange(24).reshaped(Shape{2, 3, 2, 2});
  const Tensor y = f.forward(x, Mode::kTrain);
  EXPECT_EQ(y.shape(), Shape({2, 12}));
  const Tensor dx = f.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Sequential, ChainsLayersAndCollectsParameters) {
  util::Rng rng(11);
  Sequential seq;
  seq.emplace<Linear>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2x (weight, bias)
  const Tensor y = seq.forward(Tensor(Shape{5, 4}), Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({5, 2}));
  EXPECT_FALSE(seq.summary().empty());
}

TEST(Sequential, AddNullThrows) {
  Sequential seq;
  EXPECT_THROW(seq.add(nullptr), util::Error);
}

// Registry ids are baked into every checkpoint's architecture fingerprint,
// so the table is pinned in full: a renumbered row, or a reuse of the ids
// retired with BatchNorm1d (5), BatchNorm2d (6), Dropout (8) and
// AlifLayer (15), would silently re-key existing checkpoints.
TEST(LayerRegistry, IdsArePinnedAndRetiredIdsUnused) {
  const std::vector<std::pair<std::string_view, int>> expected = {
      {"ReLU", 1},        {"Scale", 2},     {"Sigmoid", 3},
      {"Tanh", 4},        {"Conv2d", 7},    {"Flatten", 9},
      {"Linear", 10},     {"AvgPool2d", 11}, {"MaxPool2d", 12},
      {"Sequential", 13}, {"LifLayer", 14}, {"PoissonEncoder", 16},
      {"LiReadout", 17},
  };
  const std::vector<LayerKindInfo>& registry = layer_registry();
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry[i].kind, expected[i].first) << "row " << i;
    EXPECT_EQ(registry[i].id, expected[i].second) << "row " << i;
  }
  for (const LayerKindInfo& info : registry)
    for (const int retired : {5, 6, 8, 15})
      EXPECT_NE(info.id, retired) << info.kind << " reuses a retired id";
}

}  // namespace
}  // namespace snnsec::nn
