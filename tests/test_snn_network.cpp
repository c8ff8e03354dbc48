// SpikingClassifier: time replication, full-network behavior, training.
#include <gtest/gtest.h>

#include "data/synth_digits.hpp"
#include "gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "snn/spiking_lenet.hpp"
#include "tensor/ops.hpp"

namespace snnsec::snn {
namespace {

using snnsec::testutil::bit_identical;
using tensor::Shape;
using tensor::Tensor;

nn::LenetSpec tiny_arch() {
  nn::LenetSpec spec = nn::LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  return spec;
}

SnnConfig tiny_cfg(std::int64_t t = 6) {
  SnnConfig cfg;
  cfg.time_steps = t;
  return cfg;
}

TEST(ReplicateOverTime, LayoutIsTimeMajor) {
  const Tensor x = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = SpikingClassifier::replicate_over_time(x, 3);
  EXPECT_EQ(r.shape(), Shape({6, 3}));
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t i = 0; i < 6; ++i)
      EXPECT_FLOAT_EQ(r[t * 6 + i], x[i]);
}

TEST(SumOverTime, IsAdjointOfReplicate) {
  // sum_over_time(replicate(x)) == T * x
  const Tensor x = Tensor::from_vector(Shape{2, 2}, {1, -2, 3, 0.5f});
  const Tensor s = SpikingClassifier::sum_over_time(
      SpikingClassifier::replicate_over_time(x, 5), 5);
  EXPECT_TRUE(s.allclose(tensor::mul_scalar(x, 5.0f), 1e-5f));
}

TEST(SumOverTime, RejectsIndivisibleDim) {
  EXPECT_THROW(SpikingClassifier::sum_over_time(Tensor(Shape{7, 2}), 3),
               util::Error);
}

TEST(SpikingLenet, BuildsAndClassifies) {
  util::Rng rng(1);
  auto model = build_spiking_lenet(tiny_arch(), tiny_cfg(), rng);
  EXPECT_EQ(model->num_classes(), 10);
  EXPECT_EQ(model->time_steps(), 6);
  const Tensor x(Shape{3, 1, 8, 8});
  const Tensor logits = model->logits(x);
  EXPECT_EQ(logits.shape(), Shape({3, 10}));
  const auto pred = model->predict(x);
  EXPECT_EQ(pred.size(), 3u);
  EXPECT_FALSE(model->describe().empty());
}

TEST(SpikingLenet, ParameterCountMatchesCnnTwin) {
  // "Same number of layers and neurons per layer" as the CNN (paper I-B):
  // 5 weight layers -> 10 parameter tensors.
  util::Rng rng(2);
  auto model = build_spiking_lenet(tiny_arch(), tiny_cfg(), rng);
  EXPECT_EQ(model->parameters().size(), 10u);
}

TEST(SpikingLenet, EvalIsDeterministic) {
  util::Rng rng(3);
  auto model = build_spiking_lenet(tiny_arch(), tiny_cfg(), rng);
  util::Rng drng(4);
  const Tensor x = Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng);
  const Tensor a = model->logits(x);
  const Tensor b = model->logits(x);
  EXPECT_TRUE(a.allclose(b, 0.0f));
}

TEST(SpikingLenet, SameSeedSameModel) {
  util::Rng r1(5), r2(5);
  auto m1 = build_spiking_lenet(tiny_arch(), tiny_cfg(), r1);
  auto m2 = build_spiking_lenet(tiny_arch(), tiny_cfg(), r2);
  util::Rng drng(6);
  const Tensor x = Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng);
  EXPECT_TRUE(m1->logits(x).allclose(m2->logits(x), 0.0f));
}

TEST(SpikingLenet, SpikeRatesReportedPerLifLayer) {
  util::Rng rng(7);
  auto model = build_spiking_lenet(tiny_arch(), tiny_cfg(), rng);
  util::Rng drng(8);
  model->logits(Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng));
  const auto rates = model->spike_rates();
  EXPECT_EQ(rates.size(), 5u);  // encoder + 3 conv-LIF + 1 fc-LIF
  for (const double r : rates) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(SpikingLenet, InputGradientShapeAndLoss) {
  util::Rng rng(9);
  auto model = build_spiking_lenet(tiny_arch(), tiny_cfg(), rng);
  util::Rng drng(10);
  const Tensor x = Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng);
  double loss = 0.0;
  const Tensor g = model->input_gradient(x, {1, 7}, &loss);
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_GT(loss, 0.0);
}

// The attack-mode contract (nn::Mode::kAttack): input_gradient and
// output_gradient return exactly the dx of a train forward + backward of the
// same net on the same batch and cotangent, leave every Parameter::grad
// exactly zero, and leave the net ready for training. Finite differences
// through Heaviside spikes are meaningless, so "ready for training" is
// checked bitwise: parameter gradients of a train step run right after the
// attack calls equal those of a same-seed twin that never attacked.
TEST(SpikingLenet, AttackModeContractLif) {
  // Digit strokes at 16x16 keep every spiking layer active, so the
  // gradients compared below are not vacuously zero.
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  SnnConfig cfg = tiny_cfg(8);
  ASSERT_EQ(cfg.encoder, EncoderKind::kConstantCurrentLif);
  util::Rng rng(31);
  auto model = build_spiking_lenet(arch, cfg, rng);
  util::Rng twin_rng(31);
  auto twin = build_spiking_lenet(arch, cfg, twin_rng);
  data::SynthConfig scfg;
  scfg.image_size = 16;
  util::Rng drng(32);
  const data::Dataset d = data::generate_digits(2, scfg, drng);
  const Tensor& x = d.images;
  const std::vector<std::int64_t>& labels = d.labels;
  const Tensor xs =
      SpikingClassifier::replicate_over_time(x, cfg.time_steps);

  const auto train_step = [&](SpikingClassifier& m, Tensor* cotangent) {
    for (nn::Parameter* p : m.parameters()) p->zero_grad();
    nn::SoftmaxCrossEntropy loss;
    loss.forward(m.net().forward(xs, nn::Mode::kTrain), labels);
    const Tensor cot = loss.backward();
    if (cotangent != nullptr) *cotangent = cot;
    return SpikingClassifier::sum_over_time(m.net().backward(cot),
                                            cfg.time_steps);
  };
  Tensor cot;
  const Tensor train_dx = train_step(*model, &cot);
  ASSERT_GT(tensor::l2_norm(train_dx), 0.0f) << "dead net: vacuous check";

  for (nn::Parameter* p : model->parameters()) p->zero_grad();
  const Tensor attack_dx = model->input_gradient(x, labels, nullptr);
  const Tensor vjp_dx = model->output_gradient(x, cot);
  EXPECT_TRUE(bit_identical(attack_dx, train_dx));
  EXPECT_TRUE(bit_identical(vjp_dx, train_dx));
  for (nn::Parameter* p : model->parameters())
    EXPECT_TRUE(bit_identical(p->grad, Tensor::zeros(p->grad.shape())))
        << p->name << " accumulated a gradient in attack mode";

  (void)train_step(*model, nullptr);
  (void)train_step(*twin, nullptr);
  const auto params = model->parameters();
  const auto twin_params = twin->parameters();
  ASSERT_EQ(params.size(), twin_params.size());
  float grad_mass = 0.0f;
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(bit_identical(params[i]->grad, twin_params[i]->grad))
        << "parameter " << i << " (" << params[i]->name << ")";
    grad_mass += tensor::l2_norm(params[i]->grad);
  }
  EXPECT_GT(grad_mass, 0.0f);
}

TEST(SpikingLenet, TrainBatchReducesLossOnRepeatedBatch) {
  util::Rng rng(11);
  auto model = build_spiking_lenet(tiny_arch(), tiny_cfg(8), rng);
  data::SynthConfig scfg;
  scfg.image_size = 8;
  util::Rng drng(12);
  const data::Dataset d = data::generate_digits(16, scfg, drng);
  nn::Adam optimizer(model->parameters(), {});
  const double first = model->train_batch(d.images, d.labels, optimizer);
  double last = first;
  for (int i = 0; i < 12; ++i)
    last = model->train_batch(d.images, d.labels, optimizer);
  EXPECT_LT(last, first);
}

TEST(SpikingLenet, PoissonEncoderVariant) {
  SnnConfig cfg = tiny_cfg();
  cfg.encoder = EncoderKind::kPoisson;
  util::Rng rng(13);
  auto model = build_spiking_lenet(tiny_arch(), cfg, rng);
  const Tensor logits = model->logits(Tensor(Shape{2, 1, 8, 8}));
  EXPECT_EQ(logits.shape(), Shape({2, 10}));
}

TEST(SnnConfig, ValidatesStructuralParameters) {
  SnnConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.v_th = 0.0;
  EXPECT_THROW(cfg.validate(), util::Error);
  cfg = SnnConfig{};
  cfg.time_steps = 0;
  EXPECT_THROW(cfg.validate(), util::Error);
  cfg.time_steps = kMaxTimeSteps;
  EXPECT_NO_THROW(cfg.validate());
  cfg.time_steps = kMaxTimeSteps + 1;
  EXPECT_THROW(cfg.validate(), util::Error);
  cfg = SnnConfig{};
  cfg.weight_gain = 0.0;
  EXPECT_THROW(cfg.validate(), util::Error);
}

TEST(SnnConfig, LifParamsCarryThreshold) {
  SnnConfig cfg;
  cfg.v_th = 1.75;
  EXPECT_FLOAT_EQ(cfg.lif_params().v_th, 1.75f);
}

TEST(SpikingLenet, EncoderThresholdCanBePinned) {
  SnnConfig cfg = tiny_cfg();
  cfg.v_th = 2.0;
  cfg.encoder_uses_vth = false;  // encoder keeps the template threshold (1.0)
  util::Rng rng(14);
  auto pinned = build_spiking_lenet(tiny_arch(), cfg, rng);
  cfg.encoder_uses_vth = true;
  util::Rng rng2(14);
  auto swept = build_spiking_lenet(tiny_arch(), cfg, rng2);
  util::Rng drng(15);
  const Tensor x = Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng);
  pinned->logits(x);
  swept->logits(x);
  // The pinned encoder (lower threshold) must fire at least as much.
  EXPECT_GE(pinned->spike_rates()[0], swept->spike_rates()[0]);
}

}  // namespace
}  // namespace snnsec::snn
