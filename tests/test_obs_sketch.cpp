// SketchAccumulator bit-identity contract: a request's activity sketch is
// identical whether it rode a batch or ran alone, and a deadline-truncated
// request's sketch equals an independent run truncated at the same depth.
#include <gtest/gtest.h>

#include <memory>

#include "obs/sketch.hpp"
#include "snn/anytime.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snnsec::snn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kImage = 8;
constexpr double kVth = 1.1;

std::unique_ptr<SpikingClassifier> make_model(std::int64_t t = 7) {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = kImage;
  SnnConfig cfg;
  cfg.v_th = kVth;
  cfg.time_steps = t;
  cfg.input_gain = 3.0;
  util::Rng rng(42);
  return build_spiking_lenet(arch, cfg, rng);
}

Tensor random_batch(std::int64_t n, std::uint64_t seed = 7) {
  util::Rng rng(seed);
  Tensor x(Shape{n, 1, kImage, kImage});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

Tensor slice_one(const Tensor& batch, std::int64_t i) {
  const std::int64_t numel = kImage * kImage;
  Tensor one(Shape{1, 1, kImage, kImage});
  std::copy(batch.data() + i * numel, batch.data() + (i + 1) * numel,
            one.data());
  return one;
}

// Bitwise equality: every double must match exactly — the contract is
// bit-identity, not tolerance.
void expect_sketch_equal(const obs::ActivitySketch& a,
                         const obs::ActivitySketch& b) {
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const auto& la = a.layers[l];
    const auto& lb = b.layers[l];
    EXPECT_EQ(la.firing_rate, lb.firing_rate) << "layer " << l;
    EXPECT_EQ(la.silent_fraction, lb.silent_fraction) << "layer " << l;
    EXPECT_EQ(la.saturated_fraction, lb.saturated_fraction) << "layer " << l;
    EXPECT_EQ(la.v_mean, lb.v_mean) << "layer " << l;
    EXPECT_EQ(la.spike_count, lb.spike_count) << "layer " << l;
    EXPECT_EQ(la.neurons, lb.neurons) << "layer " << l;
    ASSERT_EQ(la.hist_frac.size(), lb.hist_frac.size());
    for (std::size_t h = 0; h < la.hist_frac.size(); ++h)
      EXPECT_EQ(la.hist_frac[h], lb.hist_frac[h])
          << "layer " << l << " bucket " << h;
  }
}

TEST(SketchAccumulator, BatchedMatchesSingleBitIdentical) {
  auto model = make_model();
  AnytimeRunner runner(*model);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers());
  runner.set_sketch(&acc);

  const std::int64_t n = 4;
  const Tensor batch = random_batch(n, 51);
  runner.run(batch);
  std::vector<obs::ActivitySketch> batched(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    acc.finalize(i, batched[static_cast<std::size_t>(i)]);

  obs::ActivitySketch single;
  for (std::int64_t i = 0; i < n; ++i) {
    runner.run(slice_one(batch, i));
    acc.finalize(0, single);
    expect_sketch_equal(single, batched[static_cast<std::size_t>(i)]);
  }
}

TEST(SketchAccumulator, TruncatedMatchesIndependentTruncatedRun) {
  auto model = make_model();
  const Tensor x = random_batch(1, 71);
  const std::int64_t cut = 3;

  AnytimeRunner a(*model);
  obs::SketchAccumulator acc_a;
  acc_a.configure(a.sketch_layers());
  a.set_sketch(&acc_a);
  a.run(x, cut);
  obs::ActivitySketch truncated;
  acc_a.finalize(0, truncated);
  EXPECT_EQ(truncated.steps, cut);

  AnytimeRunner b(*model);
  obs::SketchAccumulator acc_b;
  acc_b.configure(b.sketch_layers());
  b.set_sketch(&acc_b);
  b.run(x, cut);
  obs::ActivitySketch other;
  acc_b.finalize(0, other);
  expect_sketch_equal(truncated, other);

  // Continuing the truncated runner to T does not disturb the snapshot
  // already taken, and the full-window sketch accumulates all T steps.
  while (!a.done()) a.step();
  obs::ActivitySketch full;
  acc_a.finalize(0, full);
  EXPECT_EQ(full.steps, model->time_steps());
  EXPECT_EQ(truncated.steps, cut);
  EXPECT_GE(full.layers[0].spike_count, truncated.layers[0].spike_count);
}

TEST(SketchAccumulator, HistogramRangeDerivesFromModelThreshold) {
  // Satellite contract: the membrane histogram spans [-Vth, 2*Vth) from the
  // layer's actual threshold, not the Vth-agnostic default.
  auto model = make_model();
  AnytimeRunner runner(*model);
  const auto& layers = runner.sketch_layers();
  ASSERT_FALSE(layers.empty());
  obs::SketchAccumulator acc;
  acc.configure(layers);
  for (std::int64_t l = 0; l < acc.num_layers(); ++l) {
    const double v_th = layers[static_cast<std::size_t>(l)].v_th;
    // The model stores thresholds in float; compare through that roundtrip.
    EXPECT_NEAR(v_th, kVth, 1e-6);
    EXPECT_EQ(acc.spec(l).lo, -v_th);
    EXPECT_EQ(acc.spec(l).hi, 2.0 * v_th);
    EXPECT_EQ(acc.spec(l).buckets, acc.buckets());
  }
}

TEST(SketchAccumulator, FractionsAreNormalized) {
  auto model = make_model();
  AnytimeRunner runner(*model);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers());
  runner.set_sketch(&acc);
  runner.run(random_batch(2, 81));

  obs::ActivitySketch s;
  for (std::int64_t slot = 0; slot < 2; ++slot) {
    acc.finalize(slot, s);
    for (const auto& layer : s.layers) {
      EXPECT_GE(layer.firing_rate, 0.0);
      EXPECT_LE(layer.firing_rate, 1.0);
      EXPECT_GE(layer.silent_fraction, 0.0);
      EXPECT_LE(layer.silent_fraction, 1.0);
      EXPECT_GE(layer.saturated_fraction, 0.0);
      EXPECT_LE(layer.saturated_fraction, 1.0);
      // Every membrane value lands in exactly one bucket, so the mass
      // fractions sum to 1 over neuron-steps.
      double mass = 0.0;
      for (const double h : layer.hist_frac) mass += h;
      EXPECT_NEAR(mass, 1.0, 1e-9);
    }
  }
}

TEST(SketchAccumulator, Guards) {
  obs::SketchAccumulator acc;
  EXPECT_THROW(acc.begin(1), util::Error);  // begin before configure
  EXPECT_THROW(acc.configure({}), util::Error);
  EXPECT_THROW(acc.configure({{"lif0", 1.0}}, 0), util::Error);

  acc.configure({{"lif0", 1.0}});
  EXPECT_THROW(acc.begin(0), util::Error);
  acc.begin(2);
  const float z[4] = {0.0f, 1.0f, 0.0f, 1.0f};
  // A slab that is not divisible by the batch is a geometry bug.
  EXPECT_THROW(acc.accumulate(0, z, z, 3), util::Error);
  obs::ActivitySketch out;
  EXPECT_THROW(acc.finalize(2, out), util::Error);  // slot outside batch
}

TEST(AnytimeRunnerSketch, SetSketchValidatesGeometry) {
  auto model = make_model();
  AnytimeRunner runner(*model);
  obs::SketchAccumulator unconfigured;
  EXPECT_THROW(runner.set_sketch(&unconfigured), util::Error);
  obs::SketchAccumulator wrong;
  wrong.configure({{"lif0", 1.0}});  // model has more spiking layers
  EXPECT_THROW(runner.set_sketch(&wrong), util::Error);
  // Detaching is always legal.
  runner.set_sketch(nullptr);
}

}  // namespace
}  // namespace snnsec::snn
