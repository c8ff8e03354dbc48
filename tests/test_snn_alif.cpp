// Adaptive-threshold LIF layer: dynamics and BPTT.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "snn/alif_layer.hpp"
#include "snn/lif_layer.hpp"
#include "snn/spiking_lenet.hpp"
#include "tensor/ops.hpp"

namespace snnsec::snn {
namespace {

using tensor::Shape;
using tensor::Tensor;

AlifParameters make_params(float v_th = 1.0f, float beta = 1.0f,
                           float rho = 0.9f) {
  AlifParameters p;
  p.lif.v_th = v_th;
  p.beta = beta;
  p.rho = rho;
  return p;
}

TEST(AlifParameters, Validation) {
  EXPECT_NO_THROW(make_params().validate());
  EXPECT_THROW(make_params(1.0f, -0.1f).validate(), util::Error);
  EXPECT_THROW(make_params(1.0f, 1.0f, 1.0f).validate(), util::Error);
  EXPECT_THROW(make_params(-1.0f).validate(), util::Error);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// alif_step's vector body and scalar tail must round every element the
// same: one n-element call equals n one-element calls, bit for bit. The
// population puts membranes exactly on the (unadapted) threshold, one ulp
// above it, and at -0.0f, and drives every third neuron hard enough to
// refire through its rising adaptive threshold.
TEST(AlifStep, OneCallEqualsPerElementCalls) {
  AlifParameters reset_neg_zero = make_params(0.6f, 0.4f, 0.8f);
  reset_neg_zero.lif.v_reset = -0.0f;
  for (const AlifParameters& p : {make_params(), reset_neg_zero}) {
    const float v_th = p.lif.v_th;
    for (const std::int64_t n : {1, 7, 8, 9, 31, 1000}) {
      const auto sz = static_cast<std::size_t>(n);
      std::vector<float> x(sz), i(sz), v(sz), b(sz, 0.0f);
      std::uint32_t r = static_cast<std::uint32_t>(n);
      const auto next = [&r] {
        r = r * 1664525u + 1013904223u;
        return static_cast<float>(r >> 8) / static_cast<float>(1u << 24);
      };
      for (std::size_t k = 0; k < sz; ++k) {
        switch (k % 4) {
          case 0:  // vd == v_th exactly with b = 0: must not fire
            v[k] = v_th;
            i[k] = v_th;
            break;
          case 1:  // one ulp above: fires
            v[k] = std::nextafter(v_th, 2.0f * v_th);
            i[k] = v[k];
            break;
          case 2:
            v[k] = -0.0f;
            i[k] = -0.0f;
            b[k] = -0.0f;
            break;
          default:
            v[k] = 2.0f * v_th * next() - 0.5f * v_th;
            i[k] = 4.0f * next() - 1.0f;
            b[k] = next();
        }
        x[k] = k % 3 == 0 ? 12.0f * v_th : (k % 5 == 0 ? -0.0f : next());
      }
      std::vector<float> ri = i, rv = v, rb = b;
      std::vector<float> z(sz), vd(sz), b0(sz), rz(sz), rvd(sz), rb0(sz);
      for (int t = 0; t < 12; ++t) {
        alif_step(p, n, x.data(), i.data(), v.data(), b.data(), z.data(),
                  vd.data(), b0.data());
        for (std::size_t k = 0; k < sz; ++k)
          alif_step(p, 1, &x[k], &ri[k], &rv[k], &rb[k], &rz[k], &rvd[k],
                    &rb0[k]);
        if (t == 0 && n >= 2) {
          EXPECT_EQ(z[0], 0.0f) << "vd == theta fired, n=" << n;
          EXPECT_EQ(z[1], 1.0f) << "vd one ulp above theta silent, n=" << n;
        }
        ASSERT_TRUE(same_bits(z, rz)) << "z, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(vd, rvd)) << "vd, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(b0, rb0)) << "b0, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(v, rv)) << "v, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(i, ri)) << "i, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(b, rb)) << "b, n=" << n << " t=" << t;
      }
    }
  }
}

TEST(AlifLayer, BetaZeroMatchesPlainLif) {
  // With beta = 0 the adaptation never changes the threshold, so ALIF must
  // reproduce the LIF trajectory exactly.
  const std::int64_t t = 20;
  AlifLayer alif(t, make_params(0.8f, /*beta=*/0.0f), Surrogate{});
  LifParameters lp;
  lp.v_th = 0.8f;
  LifLayer lif(t, lp, Surrogate{});
  util::Rng rng(1);
  const Tensor x = Tensor::rand_uniform(Shape{t * 3, 7}, rng, 0.0f, 2.0f);
  EXPECT_TRUE(alif.forward(x, nn::Mode::kEval)
                  .allclose(lif.forward(x, nn::Mode::kEval), 0.0f));
}

TEST(AlifLayer, AdaptationSuppressesSustainedFiring) {
  // Under constant suprathreshold drive, the adaptive neuron must fire
  // less than the plain LIF (threshold climbs after each spike).
  const std::int64_t t = 64;
  AlifLayer alif(t, make_params(1.0f, /*beta=*/2.0f, /*rho=*/0.95f),
                 Surrogate{});
  LifParameters lp;
  LifLayer lif(t, lp, Surrogate{});
  Tensor x(Shape{t, 4}, 0.4f);  // moderate drive: v_ss ~ 2 x threshold
  const Tensor za = alif.forward(x, nn::Mode::kEval);
  const Tensor zl = lif.forward(x, nn::Mode::kEval);
  EXPECT_LT(tensor::sum(za), tensor::sum(zl));
  EXPECT_GT(tensor::sum(za), 0.0f);  // but not silenced
}

TEST(AlifLayer, SpikesAreBinary) {
  AlifLayer alif(10, make_params(), Surrogate{});
  util::Rng rng(2);
  const Tensor x = Tensor::rand_uniform(Shape{10 * 2, 6}, rng, 0.0f, 3.0f);
  const Tensor z = alif.forward(x, nn::Mode::kEval);
  for (std::int64_t i = 0; i < z.numel(); ++i)
    // NOLINTNEXTLINE(snnsec-float-eq): ALIF spikes are exactly 0 or 1 by construction
    EXPECT_TRUE(z[i] == 0.0f || z[i] == 1.0f);
  EXPECT_GE(alif.last_spike_rate(), 0.0);
  EXPECT_LE(alif.last_spike_rate(), 1.0);
}

TEST(AlifLayer, BackwardMatchesLifWhenBetaZero) {
  const std::int64_t t = 12;
  AlifLayer alif(t, make_params(0.7f, 0.0f), Surrogate{});
  LifParameters lp;
  lp.v_th = 0.7f;
  LifLayer lif(t, lp, Surrogate{});
  util::Rng rng(3);
  const Tensor x = Tensor::rand_uniform(Shape{t * 2, 5}, rng, 0.0f, 2.0f);
  alif.forward(x, nn::Mode::kTrain);
  lif.forward(x, nn::Mode::kTrain);
  const Tensor g = Tensor::randn(Shape{t * 2, 5}, rng);
  EXPECT_TRUE(alif.backward(g).allclose(lif.backward(g), 1e-5f));
}

TEST(AlifLayer, BackwardIsLinearAndCausal) {
  const std::int64_t t = 8;
  AlifLayer alif(t, make_params(0.6f, 1.5f), Surrogate{});
  util::Rng rng(4);
  const Tensor x = Tensor::rand_uniform(Shape{t * 2, 4}, rng, 0.0f, 2.0f);
  alif.forward(x, nn::Mode::kTrain);
  const Tensor g1 = Tensor::randn(Shape{t * 2, 4}, rng);
  const Tensor g2 = Tensor::randn(Shape{t * 2, 4}, rng);
  Tensor gsum = g1;
  gsum.add_(g2);
  Tensor expect = alif.backward(g1);
  expect.add_(alif.backward(g2));
  EXPECT_TRUE(alif.backward(gsum).allclose(expect, 1e-4f));

  // Causality: gradient injected at t=3 produces no dx at t >= 3.
  Tensor g(Shape{t * 2, 4});
  for (std::int64_t k = 0; k < 2 * 4; ++k) g[3 * 2 * 4 + k] = 1.0f;
  const Tensor dx = alif.backward(g);
  for (std::int64_t step = 3; step < t; ++step)
    for (std::int64_t k = 0; k < 2 * 4; ++k)
      EXPECT_FLOAT_EQ(dx[step * 2 * 4 + k], 0.0f);
}

TEST(AlifLayer, BackwardRequiresCache) {
  AlifLayer alif(4, make_params(), Surrogate{});
  alif.forward(Tensor(Shape{4, 2}), nn::Mode::kEval);
  EXPECT_THROW(alif.backward(Tensor(Shape{4, 2})), util::Error);
}

TEST(AlifLayer, NameDescribesConfig) {
  AlifLayer alif(16, make_params(1.5f, 0.3f, 0.8f), Surrogate{});
  const std::string n = alif.name();
  EXPECT_NE(n.find("T=16"), std::string::npos);
  EXPECT_NE(n.find("beta=0.3"), std::string::npos);
}

TEST(SpikingLenet, AlifVariantBuildsAndRuns) {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = 8;
  SnnConfig cfg;
  cfg.time_steps = 6;
  cfg.neuron_model = NeuronModel::kAlif;
  util::Rng rng(5);
  auto model = build_spiking_lenet(arch, cfg, rng);
  const Tensor x(Shape{2, 1, 8, 8});
  EXPECT_EQ(model->logits(x).shape(), Shape({2, 10}));
  // Gradients flow through the adaptive layers too.
  util::Rng drng(6);
  const Tensor xr = Tensor::rand_uniform(Shape{2, 1, 8, 8}, drng);
  const Tensor g =
      model->input_gradient(xr, std::vector<std::int64_t>{1, 2}, nullptr);
  EXPECT_EQ(g.shape(), xr.shape());
}

}  // namespace
}  // namespace snnsec::snn
