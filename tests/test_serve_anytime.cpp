// AnytimeRunner: per-timestep logits must bit-match the one-shot forward at
// t = T, and truncated logits must be a deterministic prefix property.
#include <gtest/gtest.h>

#include <memory>

#include "snn/anytime.hpp"
#include "snn/spiking_lenet.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snnsec::snn {
namespace {

using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<SpikingClassifier> make_model(std::int64_t t = 7,
                                              double input_gain = 3.0) {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = 8;
  SnnConfig cfg;
  cfg.v_th = 1.1;
  cfg.time_steps = t;
  cfg.input_gain = input_gain;
  util::Rng rng(42);
  return build_spiking_lenet(arch, cfg, rng);
}

Tensor random_batch(std::int64_t n, std::uint64_t seed = 7) {
  util::Rng rng(seed);
  Tensor x(Shape{n, 1, 8, 8});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
}

TEST(AnytimeRunner, FullWindowMatchesOneShotBitwise) {
  auto model = make_model();
  const Tensor x = random_batch(3);
  const Tensor one_shot = model->logits(x);

  AnytimeRunner runner(*model);
  const Tensor& stepped = runner.run(x);
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.steps_done(), model->time_steps());
  expect_bitwise_equal(stepped, one_shot);
}

TEST(AnytimeRunner, NoScaleLayerWhenInputGainIsOne) {
  // input_gain == 1 drops the Scale layer from the stack; the runner must
  // still compile and match.
  auto model = make_model(4, 1.0);
  const Tensor x = random_batch(2, 13);
  AnytimeRunner runner(*model);
  expect_bitwise_equal(runner.run(x), model->logits(x));
}

TEST(AnytimeRunner, TruncatedLogitsArePrefixDeterministic) {
  auto model = make_model();
  const Tensor x = random_batch(2, 21);

  // Two independent runners truncated at the same depth agree bitwise.
  AnytimeRunner a(*model);
  AnytimeRunner b(*model);
  const std::int64_t cut = 3;
  Tensor at_cut = a.run(x, cut);
  EXPECT_EQ(a.steps_done(), cut);
  EXPECT_FALSE(a.done());
  expect_bitwise_equal(at_cut, b.run(x, cut));

  // Continuing the truncated runner to T converges to the one-shot logits:
  // truncation is a prefix of the same computation, not a different one.
  while (!a.done()) a.step();
  expect_bitwise_equal(a.logits(), model->logits(x));
}

TEST(AnytimeRunner, TruncationMatchesModelBuiltWithSmallerT) {
  // The running-max decode means logits after t steps equal the logits of
  // the same weights evaluated with window T' = t. Build a T'=3 model with
  // identical weights (same RNG seed) and compare.
  auto full = make_model(7);
  auto small = make_model(3);
  const Tensor x = random_batch(2, 31);

  AnytimeRunner runner(*full);
  expect_bitwise_equal(runner.run(x, 3), small->logits(x));
}

TEST(AnytimeRunner, RunnerIsReusableAcrossRequests) {
  auto model = make_model();
  AnytimeRunner runner(*model);

  const Tensor x1 = random_batch(2, 41);
  const Tensor x2 = random_batch(2, 43);
  const Tensor fresh1 = model->logits(x1);
  const Tensor fresh2 = model->logits(x2);

  expect_bitwise_equal(runner.run(x1), fresh1);
  expect_bitwise_equal(runner.run(x2), fresh2);
  // State fully resets: repeating the first request reproduces it.
  expect_bitwise_equal(runner.run(x1), fresh1);
}

TEST(AnytimeRunner, BatchedMatchesSingleRequestBitwise) {
  auto model = make_model();
  const std::int64_t n = 4;
  const Tensor batch = random_batch(n, 51);
  AnytimeRunner runner(*model);
  const Tensor batched = runner.run(batch);

  for (std::int64_t i = 0; i < n; ++i) {
    Tensor one(Shape{1, 1, 8, 8});
    std::copy(batch.data() + i * 64, batch.data() + (i + 1) * 64, one.data());
    const Tensor& single = runner.run(one);
    for (std::int64_t c = 0; c < model->num_classes(); ++c)
      EXPECT_EQ(single.data()[c],
                batched.data()[i * model->num_classes() + c])
          << "sample " << i << " class " << c;
  }
}

TEST(AnytimeRunner, RejectsPoissonEncoder) {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = 8;
  SnnConfig cfg;
  cfg.time_steps = 4;
  cfg.encoder = EncoderKind::kPoisson;
  util::Rng rng(42);
  auto model = build_spiking_lenet(arch, cfg, rng);
  EXPECT_THROW(AnytimeRunner{*model}, util::Error);
}

TEST(AnytimeRunner, RejectsArmedSpikeFault) {
  auto model = make_model();
  SpikeFault fault;
  fault.drop_prob = 0.1;
  for (std::size_t i = 0; i < model->net().size(); ++i)
    if (model->net().layer(i).kind() == "LifLayer")
      static_cast<LifLayer&>(model->net().layer(i)).set_spike_fault(fault);

  AnytimeRunner runner(*model);
  EXPECT_THROW(runner.begin(random_batch(1)), util::Error);
}

TEST(AnytimeRunner, AllowFaultsOptsIntoArmedSpikeFaults) {
  // Chaos mode: the same armed fault that a default runner rejects is
  // replayed per step under allow_faults, bit-identically to the one-shot
  // faulted forward and deterministically across runners.
  auto model = make_model();
  const Tensor x = random_batch(2, 21);
  const Tensor clean = model->logits(x);

  SpikeFault fault;
  fault.drop_prob = 0.0;
  fault.stuck_one_fraction = 1.0;  // saturate every LIF: visibly not clean
  fault.seed = 31;
  for (std::size_t i = 0; i < model->net().size(); ++i)
    if (model->net().layer(i).kind() == "LifLayer")
      static_cast<LifLayer&>(model->net().layer(i)).set_spike_fault(fault);

  AnytimeRunner strict(*model);
  EXPECT_THROW(strict.begin(x), util::Error)
      << "default runners must keep rejecting armed faults";

  const Tensor faulted = model->logits(x);  // one-shot under the fault
  AnytimeRunner a(*model, /*allow_faults=*/true);
  AnytimeRunner b(*model, /*allow_faults=*/true);
  const Tensor& la = a.run(x, model->time_steps());
  expect_bitwise_equal(la, faulted);
  expect_bitwise_equal(la, b.run(x, model->time_steps()));
  bool differs = false;
  for (std::int64_t i = 0; i < clean.numel(); ++i)
    if (la.data()[i] != clean.data()[i]) differs = true;
  EXPECT_TRUE(differs) << "a saturated network cannot match clean logits";

  // Disarming restores the clean bit-exact contract for default runners.
  for (std::size_t i = 0; i < model->net().size(); ++i)
    if (model->net().layer(i).kind() == "LifLayer")
      static_cast<LifLayer&>(model->net().layer(i))
          .set_spike_fault(SpikeFault{});
  AnytimeRunner healed(*model);
  expect_bitwise_equal(healed.run(x, model->time_steps()), clean);
}

TEST(AnytimeRunner, StepGuards) {
  auto model = make_model(2);
  AnytimeRunner runner(*model);
  EXPECT_THROW(runner.step(), util::Error);  // step before begin
  runner.run(random_batch(1));
  EXPECT_THROW(runner.step(), util::Error);  // step past T
}

}  // namespace
}  // namespace snnsec::snn
