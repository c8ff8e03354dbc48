// Trainer, metrics, and learnability of small models on separable data.
#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/feedforward.hpp"
#include "nn/lenet.hpp"
#include "nn/linear.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"

namespace snnsec::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Two Gaussian blobs in 2-D, linearly separable.
void make_blobs(std::int64_t n, Tensor& x, std::vector<std::int64_t>& y,
                std::uint64_t seed) {
  util::Rng rng(seed);
  x = Tensor(Shape{n, 2});
  y.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t label = i % 2;
    const double cx = label == 0 ? -1.5 : 1.5;
    x[i * 2 + 0] = static_cast<float>(rng.normal(cx, 0.4));
    x[i * 2 + 1] = static_cast<float>(rng.normal(-cx, 0.4));
    y[static_cast<std::size_t>(i)] = label;
  }
}

std::unique_ptr<FeedforwardClassifier> make_mlp(std::uint64_t seed) {
  util::Rng rng(seed);
  auto seq = std::make_unique<Sequential>();
  seq->emplace<Linear>(2, 8, rng);
  seq->emplace<ReLU>();
  seq->emplace<Linear>(8, 2, rng);
  return std::make_unique<FeedforwardClassifier>(std::move(seq), 2, "mlp");
}

TEST(Trainer, LearnsLinearlySeparableBlobs) {
  Tensor x;
  std::vector<std::int64_t> y;
  make_blobs(200, x, y, 1);
  auto model = make_mlp(2);
  TrainConfig cfg;
  cfg.epochs = 20;
  cfg.lr = 0.01;
  const TrainHistory h = Trainer(cfg).fit(*model, x, y);
  EXPECT_EQ(h.epochs.size(), 20u);
  EXPECT_GT(accuracy(*model, x, y), 0.95);
  // Loss should decrease substantially.
  EXPECT_LT(h.epochs.back().train_loss, h.epochs.front().train_loss * 0.5);
}

TEST(Trainer, EarlyStopCallback) {
  Tensor x;
  std::vector<std::int64_t> y;
  make_blobs(100, x, y, 3);
  auto model = make_mlp(4);
  TrainConfig cfg;
  cfg.epochs = 50;
  const TrainHistory h = Trainer(cfg).fit(
      *model, x, y, [](const EpochStats& s) { return s.epoch < 4; });
  EXPECT_EQ(h.epochs.size(), 5u);  // stops after epoch index 4
}

TEST(Trainer, SgdOptimizerOption) {
  Tensor x;
  std::vector<std::int64_t> y;
  make_blobs(200, x, y, 5);
  auto model = make_mlp(6);
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.optimizer = OptimizerKind::kSgd;
  cfg.lr = 0.05;
  Trainer(cfg).fit(*model, x, y);
  EXPECT_GT(accuracy(*model, x, y), 0.9);
}

TEST(Trainer, DeterministicGivenSeeds) {
  Tensor x;
  std::vector<std::int64_t> y;
  make_blobs(100, x, y, 7);
  auto m1 = make_mlp(8);
  auto m2 = make_mlp(8);
  TrainConfig cfg;
  cfg.epochs = 5;
  const auto h1 = Trainer(cfg).fit(*m1, x, y);
  const auto h2 = Trainer(cfg).fit(*m2, x, y);
  for (std::size_t i = 0; i < h1.epochs.size(); ++i)
    EXPECT_DOUBLE_EQ(h1.epochs[i].train_loss, h2.epochs[i].train_loss);
}

TEST(Trainer, RejectsBadInputs) {
  auto model = make_mlp(9);
  TrainConfig cfg;
  Trainer t(cfg);
  Tensor x(Shape{4, 2});
  EXPECT_THROW(t.fit(*model, x, {0, 1}), util::Error);  // label mismatch
  EXPECT_THROW(t.fit(*model, Tensor(Shape{0, 2}), {}), util::Error);
}

TEST(Metrics, AccuracyCountsCorrect) {
  Tensor x;
  std::vector<std::int64_t> y;
  make_blobs(50, x, y, 10);
  auto model = make_mlp(11);
  const double acc = accuracy(*model, x, y, 16);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_THROW(accuracy(*model, x, {0, 1}), util::Error);
}

TEST(Metrics, ConfusionMatrixRowsSumToClassCounts) {
  Tensor x;
  std::vector<std::int64_t> y;
  make_blobs(60, x, y, 12);
  auto model = make_mlp(13);
  const auto cm = confusion_matrix(*model, x, y, 16);
  ASSERT_EQ(cm.size(), 2u);
  std::int64_t row0 = cm[0][0] + cm[0][1];
  std::int64_t row1 = cm[1][0] + cm[1][1];
  EXPECT_EQ(row0, 30);
  EXPECT_EQ(row1, 30);
}

TEST(Metrics, SliceBatch) {
  const Tensor x = Tensor::arange(12).reshaped(Shape{4, 3});
  const Tensor s = slice_batch(x, 1, 3);
  EXPECT_EQ(s.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(s[0], 3.0f);
  EXPECT_FLOAT_EQ(s[5], 8.0f);
  EXPECT_THROW(slice_batch(x, 3, 5), util::Error);
  EXPECT_THROW(slice_batch(x, -1, 2), util::Error);
}

TEST(LenetSpec, ValidationAndScaling) {
  LenetSpec spec;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.pooled_size(), 7);
  const LenetSpec half = spec.scaled(0.5);
  EXPECT_EQ(half.conv1_channels, 3);
  EXPECT_EQ(half.conv2_channels, 8);
  EXPECT_GE(half.fc_hidden, 2);
  LenetSpec bad = spec;
  bad.image_size = 10;  // not divisible by 4
  EXPECT_THROW(bad.validate(), util::Error);
  bad = spec;
  bad.num_classes = 1;
  EXPECT_THROW(bad.validate(), util::Error);
}

TEST(Lenet, BuildersProduceWorkingClassifiers) {
  LenetSpec spec = LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  util::Rng rng(14);
  auto paper = build_paper_cnn(spec, rng);
  const Tensor x(Shape{2, 1, 8, 8});
  EXPECT_EQ(paper->logits(x).shape(), Shape({2, 10}));
  EXPECT_EQ(paper->num_classes(), 10);
  EXPECT_FALSE(paper->describe().empty());
  // The paper variant has 3 conv + 2 fc = 5 weight layers -> 10 params.
  EXPECT_EQ(paper->parameters().size(), 10u);
}

TEST(Lenet, PredictReturnsArgmax) {
  LenetSpec spec = LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  util::Rng rng(15);
  auto model = build_paper_cnn(spec, rng);
  const auto pred = model->predict(Tensor(Shape{3, 1, 8, 8}));
  ASSERT_EQ(pred.size(), 3u);
  for (const auto p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 10);
  }
}

}  // namespace
}  // namespace snnsec::nn
