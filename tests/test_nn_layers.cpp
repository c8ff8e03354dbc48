// Forward semantics of every nn layer.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>

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

// A generic kernel x kernel accumulate (forward) and zero-fill-then-+=
// scatter (backward): AvgPool2d's 2x2, stride-2 kernels must match them bit
// for bit.
Tensor generic_avg_pool(const Tensor& x, std::int64_t kernel,
                        std::int64_t stride) {
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  Tensor y(Shape{x.dim(0), x.dim(1), oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (std::int64_t nc = 0; nc < x.dim(0) * x.dim(1); ++nc)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (std::int64_t ky = 0; ky < kernel; ++ky)
          for (std::int64_t kx = 0; kx < kernel; ++kx)
            acc += x[nc * h * w + (oy * stride + ky) * w + ox * stride + kx];
        y[nc * oh * ow + oy * ow + ox] = acc * inv;
      }
  return y;
}

Tensor generic_avg_pool_backward(const Tensor& g, const Shape& in,
                                 std::int64_t kernel, std::int64_t stride) {
  const std::int64_t h = in.dim(2);
  const std::int64_t w = in.dim(3);
  const std::int64_t oh = g.dim(2);
  const std::int64_t ow = g.dim(3);
  Tensor dx(in);
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (std::int64_t nc = 0; nc < in.dim(0) * in.dim(1); ++nc)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float v = g[nc * oh * ow + oy * ow + ox] * inv;
        for (std::int64_t ky = 0; ky < kernel; ++ky)
          for (std::int64_t kx = 0; kx < kernel; ++kx)
            dx[nc * h * w + (oy * stride + ky) * w + ox * stride + kx] += v;
      }
  return dx;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Random values with -0, NaN, +-Inf and denormals (some of which underflow
// to -0 when scaled by 1/4) sprinkled in, plus a window of -0 only.
Tensor pool_operand(const Shape& shape, util::Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  const float specials[] = {-0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            -3e-39f,
                            1e-40f};
  for (std::int64_t i = 0; i < t.numel(); i += 5)
    t[i] = specials[rng.uniform_int(0, std::size(specials) - 1)];
  for (std::int64_t i = 0; i < std::min<std::int64_t>(t.numel(), 2); ++i)
    t[i] = -0.0f;
  if (shape.dim(3) > 1 && shape.dim(2) > 1) {
    t[shape.dim(3)] = -0.0f;
    t[shape.dim(3) + 1] = -0.0f;
  }
  return t;
}

void expect_pool_matches_generic(const Shape& in, util::Rng& rng) {
  SCOPED_TRACE("in=" + in.to_string());
  AvgPool2d pool(2);
  const Tensor x = pool_operand(in, rng);
  const Tensor want = generic_avg_pool(x, 2, 2);
  EXPECT_TRUE(same_bits(pool.forward(x, Mode::kAttack), want));
  Tensor y;
  pool.forward_into(x, y);
  EXPECT_TRUE(same_bits(y, want));
  const Tensor g = pool_operand(want.shape(), rng);
  EXPECT_TRUE(same_bits(pool.backward(g),
                        generic_avg_pool_backward(g, in, 2, 2)));
}

TEST(AvgPool2d, MatchesGenericLoopBitForBit) {
  util::Rng rng(31);
  for (const Shape& in : {Shape{1, 1, 2, 2}, Shape{2, 3, 6, 8},
                          Shape{2, 3, 7, 9}, Shape{3, 2, 5, 4},
                          Shape{1, 4, 28, 28}, Shape{2, 1, 14, 15}})
    expect_pool_matches_generic(in, rng);
}

TEST(AvgPool2d, RejectsWindowsOtherThan2x2Stride2) {
  const Tensor x(Shape{1, 1, 6, 6});
  Tensor y;
  for (const auto& [kernel, stride] :
       {std::pair<std::int64_t, std::int64_t>{3, 2}, {2, 1}, {3, 3}}) {
    AvgPool2d pool(kernel, stride);
    EXPECT_THROW(pool.forward(x, Mode::kEval), util::Error);
    EXPECT_THROW(pool.forward_into(x, y), util::Error);
  }
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
