// BatchNorm 1d/2d: normalization semantics, running statistics, gradients.
#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "nn/batchnorm.hpp"
#include "nn/lenet.hpp"
#include "nn/metrics.hpp"

namespace snnsec::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(BatchNorm1d, NormalizesToZeroMeanUnitVar) {
  BatchNorm1d bn(3);
  util::Rng rng(1);
  const Tensor x = Tensor::randn(Shape{64, 3}, rng, 5.0f, 2.0f);
  const Tensor y = bn.forward(x, Mode::kTrain);
  for (std::int64_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t i = 0; i < 64; ++i) mean += y.at({i, c});
    mean /= 64.0;
    for (std::int64_t i = 0; i < 64; ++i) {
      const double d = y.at({i, c}) - mean;
      var += d * d;
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm1d, GammaBetaAffineApplied) {
  BatchNorm1d bn(2);
  bn.gamma().value = Tensor::from_vector(Shape{2}, {2.0f, 0.5f});
  bn.beta().value = Tensor::from_vector(Shape{2}, {1.0f, -1.0f});
  util::Rng rng(2);
  const Tensor x = Tensor::randn(Shape{32, 2}, rng);
  const Tensor y = bn.forward(x, Mode::kTrain);
  double mean0 = 0.0, mean1 = 0.0;
  for (std::int64_t i = 0; i < 32; ++i) {
    mean0 += y.at({i, 0});
    mean1 += y.at({i, 1});
  }
  EXPECT_NEAR(mean0 / 32.0, 1.0, 1e-4);   // beta
  EXPECT_NEAR(mean1 / 32.0, -1.0, 1e-4);
}

TEST(BatchNorm1d, RunningStatsConvergeToDataStats) {
  BatchNorm1d bn(1, /*momentum=*/0.5);
  util::Rng rng(3);
  for (int step = 0; step < 50; ++step) {
    const Tensor x = Tensor::randn(Shape{256, 1}, rng, 3.0f, 2.0f);
    bn.forward(x, Mode::kTrain);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.6f);
}

TEST(BatchNorm1d, EvalUsesRunningStats) {
  BatchNorm1d bn(1, /*momentum=*/1.0);  // running stats = last batch stats
  util::Rng rng(4);
  const Tensor train_batch = Tensor::randn(Shape{512, 1}, rng, 2.0f, 1.0f);
  bn.forward(train_batch, Mode::kTrain);
  // A constant eval input normalizes against the stored stats, not its own.
  const Tensor x = Tensor::full(Shape{4, 1}, 2.0f);
  const Tensor y = bn.forward(x, Mode::kEval);
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(y[i], 0.0f, 0.15f);  // (2 - running_mean≈2) / std≈1
}

TEST(BatchNorm2d, PerChannelOverSpatialAndBatch) {
  BatchNorm2d bn(2);
  util::Rng rng(5);
  Tensor x(Shape{4, 2, 3, 3});
  // Channel 0 ~ N(10, 1), channel 1 ~ N(-5, 3).
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t c = 0; c < 2; ++c)
      for (std::int64_t j = 0; j < 9; ++j)
        x[(i * 2 + c) * 9 + j] = static_cast<float>(
            c == 0 ? rng.normal(10.0, 1.0) : rng.normal(-5.0, 3.0));
  const Tensor y = bn.forward(x, Mode::kTrain);
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (std::int64_t i = 0; i < 4; ++i)
      for (std::int64_t j = 0; j < 9; ++j) mean += y[(i * 2 + c) * 9 + j];
    EXPECT_NEAR(mean / 36.0, 0.0, 1e-4) << "channel " << c;
  }
}

TEST(BatchNorm2d, TrainModeGradCheck) {
  BatchNorm2d bn(2);
  util::Rng drng(6);
  const Tensor x = Tensor::randn(Shape{3, 2, 2, 2}, drng);
  util::Rng wrng(7);
  // Custom check: batch statistics couple samples, so use the layer's own
  // train-mode forward inside the finite difference as well.
  const Tensor y0 = bn.forward(x, Mode::kTrain);
  const Tensor w = Tensor::randn(y0.shape(), wrng);
  for (Parameter* p : bn.parameters()) p->zero_grad();
  const Tensor analytic = bn.backward(w);
  const double step = 1e-2;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x;
    xp[i] += static_cast<float>(step);
    Tensor xm = x;
    xm[i] -= static_cast<float>(step);
    // Fresh BN with same params so running stats do not drift the result.
    BatchNorm2d bn2(2);
    bn2.gamma().value = bn.gamma().value;
    bn2.beta().value = bn.beta().value;
    const double lp = snnsec::testutil::dot(w, bn2.forward(xp, Mode::kTrain));
    const double lm = snnsec::testutil::dot(w, bn2.forward(xm, Mode::kTrain));
    const double numeric = (lp - lm) / (2 * step);
    EXPECT_LT(snnsec::testutil::grad_error(numeric, analytic[i]), 3e-2)
        << "coord " << i;
  }
}

TEST(BatchNorm2d, FrozenStatsGradientIsDiagonal) {
  BatchNorm2d bn(1, /*momentum=*/1.0);
  util::Rng rng(8);
  bn.forward(Tensor::randn(Shape{16, 1, 2, 2}, rng), Mode::kTrain);
  // Attack-mode forward: frozen stats -> dx = dy * gamma * inv_std.
  const Tensor x = Tensor::randn(Shape{2, 1, 2, 2}, rng);
  bn.forward(x, Mode::kAttack);
  Tensor g(Shape{2, 1, 2, 2});
  g[3] = 1.0f;
  const Tensor dx = bn.backward(g);
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    if (i == 3) EXPECT_NE(dx[i], 0.0f);
    else EXPECT_FLOAT_EQ(dx[i], 0.0f);
  }
}

TEST(BatchNorm2d, AttackBackwardLeavesGammaBetaGradsZero) {
  BatchNorm2d bn(3, /*momentum=*/1.0);
  util::Rng rng(11);
  bn.forward(Tensor::randn(Shape{8, 3, 2, 2}, rng), Mode::kTrain);
  for (Parameter* p : bn.parameters()) p->zero_grad();
  const Tensor x = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  bn.forward(x, Mode::kAttack);
  const Tensor dx = bn.backward(Tensor::randn(x.shape(), rng));
  EXPECT_GT(snnsec::testutil::dot(dx, dx), 0.0);
  for (Parameter* p : bn.parameters())
    for (std::int64_t c = 0; c < p->grad.numel(); ++c)
      EXPECT_EQ(std::fpclassify(p->grad[c]), FP_ZERO) << p->name << c;

  // The next train backward accumulates them again.
  bn.forward(x, Mode::kTrain);
  bn.backward(Tensor::randn(x.shape(), rng));
  EXPECT_GT(snnsec::testutil::dot(bn.beta().grad, bn.beta().grad), 0.0);
}

TEST(BatchNorm, ParameterGradients) {
  BatchNorm1d bn(4);
  util::Rng drng(9);
  const Tensor x = Tensor::randn(Shape{8, 4}, drng);
  util::Rng wrng(10);
  const Tensor y0 = bn.forward(x, Mode::kTrain);
  const Tensor w = Tensor::randn(y0.shape(), wrng);
  for (Parameter* p : bn.parameters()) p->zero_grad();
  bn.backward(w);
  // dbeta = column sums of w; dgamma = sum(w * x_hat). Check dbeta exactly.
  for (std::int64_t c = 0; c < 4; ++c) {
    double colsum = 0.0;
    for (std::int64_t i = 0; i < 8; ++i) colsum += w.at({i, c});
    EXPECT_NEAR(bn.beta().grad[c], colsum, 1e-4);
  }
}

TEST(BatchNorm, RejectsBadConfigAndShapes) {
  EXPECT_THROW(BatchNorm1d(0), util::Error);
  EXPECT_THROW(BatchNorm1d(4, /*momentum=*/0.0), util::Error);
  EXPECT_THROW(BatchNorm1d(4, 0.1, /*eps=*/0.0), util::Error);
  BatchNorm2d bn(3);
  EXPECT_THROW(bn.forward(Tensor(Shape{2, 3}), Mode::kTrain), util::Error);
  EXPECT_THROW(bn.forward(Tensor(Shape{2, 4, 2, 2}), Mode::kTrain),
               util::Error);
  BatchNorm1d bn1(3);
  EXPECT_THROW(bn1.forward(Tensor(Shape{2, 3, 2, 2}), Mode::kTrain),
               util::Error);
}

TEST(BatchNorm, LenetVariantBuildsTrainsAndAttacks) {
  LenetSpec spec = LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  spec.use_batchnorm = true;
  util::Rng rng(11);
  auto model = build_paper_cnn(spec, rng);
  // 3 conv BN layers add 6 parameters (gamma/beta each).
  EXPECT_EQ(model->parameters().size(), 16u);
  const Tensor x(Shape{4, 1, 8, 8});
  EXPECT_EQ(model->logits(x).shape(), Shape({4, 10}));
  // Attack-mode input gradient flows through frozen statistics.
  util::Rng drng(12);
  const Tensor xr = Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng);
  double loss = 0.0;
  const Tensor g = model->input_gradient(xr, {3, 7}, &loss);
  EXPECT_EQ(g.shape(), xr.shape());
  EXPECT_GT(loss, 0.0);
}

}  // namespace
}  // namespace snnsec::nn
