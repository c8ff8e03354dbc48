// LifLayer BPTT, LiReadout decoding, and encoders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gradcheck.hpp"
#include "snn/encoder.hpp"
#include "snn/li_readout.hpp"
#include "snn/lif_layer.hpp"
#include "tensor/ops.hpp"

namespace snnsec::snn {
namespace {

using tensor::Shape;
using tensor::Tensor;

LifParameters params_with_vth(float v_th) {
  LifParameters p;
  p.v_th = v_th;
  return p;
}

TEST(LifLayer, OutputsAreBinarySpikes) {
  LifLayer lif(8, params_with_vth(0.5f), Surrogate{});
  util::Rng rng(1);
  const Tensor x = Tensor::rand_uniform(Shape{8 * 4, 10}, rng, 0.0f, 2.0f);
  const Tensor z = lif.forward(x, nn::Mode::kEval);
  EXPECT_EQ(z.shape(), x.shape());
  for (std::int64_t i = 0; i < z.numel(); ++i)
    // NOLINTNEXTLINE(snnsec-float-eq): LIF spikes are exactly 0 or 1 by construction
    EXPECT_TRUE(z[i] == 0.0f || z[i] == 1.0f);
  EXPECT_GT(lif.last_spike_rate(), 0.0);
  EXPECT_LT(lif.last_spike_rate(), 1.0);
}

TEST(LifLayer, RequiresDivisibleTimeDimension) {
  LifLayer lif(8, params_with_vth(1.0f), Surrogate{});
  EXPECT_THROW(lif.forward(Tensor(Shape{9, 3}), nn::Mode::kEval),
               util::Error);
}

TEST(LifLayer, BackwardNeedsCachedForward) {
  LifLayer lif(4, params_with_vth(1.0f), Surrogate{});
  lif.forward(Tensor(Shape{4, 2}), nn::Mode::kEval);
  EXPECT_THROW(lif.backward(Tensor(Shape{4, 2})), util::Error);
  lif.forward(Tensor(Shape{4, 2}), nn::Mode::kTrain);
  EXPECT_NO_THROW(lif.backward(Tensor(Shape{4, 2})));
  lif.clear_cache();
  EXPECT_THROW(lif.backward(Tensor(Shape{4, 2})), util::Error);
}

// Hand-computed BPTT on 1 neuron, T=3 (see comments for the step math).
// Parameters: a=0.1, b=0.8, v_th=0.15, reset=0, StraightThrough(alpha=1)
// so the surrogate is exactly 1 for |v - v_th| < 0.5.
// Input x = (2, 0, 0):
//   t0: vd=0      z=0  i->2
//   t1: vd=0.2    z=1  (reset) i->1.6
//   t2: vd=0.16   z=1  (reset) i->1.28
class LifHandCase : public ::testing::Test {
 protected:
  LifHandCase()
      : lif_(3, params_with_vth(0.15f),
             Surrogate{SurrogateKind::kStraightThrough, 1.0f}) {}

  Tensor run_forward() {
    const Tensor x = Tensor::from_vector(Shape{3, 1}, {2.0f, 0.0f, 0.0f});
    return lif_.forward(x, nn::Mode::kTrain);
  }

  LifLayer lif_;
};

TEST_F(LifHandCase, ForwardSpikesAtExpectedSteps) {
  const Tensor z = run_forward();
  EXPECT_FLOAT_EQ(z[0], 0.0f);
  EXPECT_FLOAT_EQ(z[1], 1.0f);
  EXPECT_FLOAT_EQ(z[2], 1.0f);
}

TEST_F(LifHandCase, BackwardGradOfMiddleSpike) {
  run_forward();
  const Tensor g = Tensor::from_vector(Shape{3, 1}, {0.0f, 1.0f, 0.0f});
  const Tensor dx = lif_.backward(g);
  // Derived by hand: dz1/dx = (0.1, 0, 0).
  EXPECT_NEAR(dx[0], 0.1f, 1e-6f);
  EXPECT_NEAR(dx[1], 0.0f, 1e-6f);
  EXPECT_NEAR(dx[2], 0.0f, 1e-6f);
}

TEST_F(LifHandCase, BackwardGradOfLastSpikeIncludesResetPath) {
  run_forward();
  const Tensor g = Tensor::from_vector(Shape{3, 1}, {0.0f, 0.0f, 1.0f});
  const Tensor dx = lif_.backward(g);
  // Derived by hand: dz2/dx = (0.062, 0.1, 0) — the t0 component combines
  // the direct synaptic path (+0.1*0.8) with the reset-gate path (-0.018).
  EXPECT_NEAR(dx[0], 0.062f, 1e-5f);
  EXPECT_NEAR(dx[1], 0.1f, 1e-6f);
  EXPECT_NEAR(dx[2], 0.0f, 1e-6f);
}

TEST(LifLayer, BackwardIsLinearInUpstreamGradient) {
  LifLayer lif(6, params_with_vth(0.8f), Surrogate{});
  util::Rng rng(2);
  const Tensor x = Tensor::rand_uniform(Shape{6 * 2, 5}, rng, 0.0f, 2.0f);
  lif.forward(x, nn::Mode::kTrain);
  const Tensor g1 = Tensor::randn(Shape{6 * 2, 5}, rng);
  const Tensor g2 = Tensor::randn(Shape{6 * 2, 5}, rng);
  const Tensor d1 = lif.backward(g1);
  const Tensor d2 = lif.backward(g2);
  Tensor gsum = g1;
  gsum.add_(g2);
  const Tensor dsum = lif.backward(gsum);
  Tensor expect = d1;
  expect.add_(d2);
  EXPECT_TRUE(dsum.allclose(expect, 1e-4f));
}

TEST(LifLayer, GradientIsCausal) {
  // dx at time t must not depend on upstream gradients at times < t, and
  // dx at the last step is always zero (input enters the *next* membrane).
  LifLayer lif(5, params_with_vth(0.6f), Surrogate{});
  util::Rng rng(3);
  const Tensor x = Tensor::rand_uniform(Shape{5 * 2, 3}, rng, 0.0f, 2.0f);
  lif.forward(x, nn::Mode::kTrain);
  Tensor g(Shape{5 * 2, 3});
  // Upstream gradient only at t = 2.
  for (std::int64_t k = 0; k < 2 * 3; ++k) g[2 * 2 * 3 + k] = 1.0f;
  const Tensor dx = lif.backward(g);
  for (std::int64_t t = 2; t < 5; ++t)
    for (std::int64_t k = 0; k < 2 * 3; ++k)
      EXPECT_FLOAT_EQ(dx[t * 2 * 3 + k], 0.0f)
          << "acausal gradient at t=" << t;
}

TEST(LiReadout, DecodesMaxOverTime) {
  LiReadout li(16, params_with_vth(1.0f));
  // Class 1 gets strong constant current, class 0 weak.
  Tensor x(Shape{16 * 2, 2});
  for (std::int64_t t = 0; t < 16; ++t)
    for (std::int64_t n = 0; n < 2; ++n) {
      x[(t * 2 + n) * 2 + 0] = 0.1f;
      x[(t * 2 + n) * 2 + 1] = 1.0f;
    }
  const Tensor logits = li.forward(x, nn::Mode::kEval);
  EXPECT_EQ(logits.shape(), Shape({2, 2}));
  EXPECT_GT(logits.at({0, 1}), logits.at({0, 0}));
  EXPECT_GT(logits.at({1, 1}), logits.at({1, 0}));
}

TEST(LiReadout, FiniteDifferenceGradient) {
  LiReadout li(6, params_with_vth(1.0f));
  util::Rng drng(4);
  const Tensor x = Tensor::randn(Shape{6 * 2, 3}, drng);
  util::Rng wrng(5);
  snnsec::testutil::check_input_gradient(li, x, wrng, /*step=*/1e-2,
                                         /*tol=*/2e-2);
}

TEST(LiReadout, MonotoneInInputCurrent) {
  LiReadout li(8, params_with_vth(1.0f));
  Tensor weak(Shape{8, 1}, 0.5f);
  Tensor strong(Shape{8, 1}, 1.0f);
  const float weak_logit = li.forward(weak, nn::Mode::kEval)[0];
  const float strong_logit = li.forward(strong, nn::Mode::kEval)[0];
  EXPECT_GT(strong_logit, weak_logit);
}

TEST(LiReadout, RejectsBadShapes) {
  LiReadout li(4, params_with_vth(1.0f));
  EXPECT_THROW(li.forward(Tensor(Shape{5, 2}), nn::Mode::kEval), util::Error);
  EXPECT_THROW(li.forward(Tensor(Shape{4, 2, 2}), nn::Mode::kEval),
               util::Error);
}

TEST(ConstantCurrentEncoder, RateGrowsWithIntensity) {
  auto enc = make_constant_current_encoder(32, params_with_vth(1.0f),
                                           Surrogate{});
  // Three pixels at increasing intensity, replicated over T=32.
  Tensor x(Shape{32, 3});
  for (std::int64_t t = 0; t < 32; ++t) {
    x[t * 3 + 0] = 0.3f;
    x[t * 3 + 1] = 0.8f;
    x[t * 3 + 2] = 2.0f;
  }
  const Tensor z = enc->forward(x, nn::Mode::kEval);
  double rate[3] = {0, 0, 0};
  for (std::int64_t t = 0; t < 32; ++t)
    for (int k = 0; k < 3; ++k) rate[k] += z[t * 3 + k];
  EXPECT_LE(rate[0], rate[1]);
  EXPECT_LT(rate[1], rate[2]);
  EXPECT_GT(rate[2], 0.0);
}

TEST(PoissonEncoder, SpikeRateMatchesIntensity) {
  PoissonEncoder enc(1000, util::Rng(6));
  Tensor x(Shape{1000, 3});
  for (std::int64_t t = 0; t < 1000; ++t) {
    x[t * 3 + 0] = 0.0f;
    x[t * 3 + 1] = 0.4f;
    x[t * 3 + 2] = 1.5f;  // clamped to 1
  }
  const Tensor z = enc.forward(x, nn::Mode::kEval);
  double rate[3] = {0, 0, 0};
  for (std::int64_t t = 0; t < 1000; ++t)
    for (int k = 0; k < 3; ++k) rate[k] += z[t * 3 + k];
  EXPECT_DOUBLE_EQ(rate[0], 0.0);
  EXPECT_NEAR(rate[1] / 1000.0, 0.4, 0.05);
  EXPECT_DOUBLE_EQ(rate[2], 1000.0);
}

TEST(PoissonEncoder, NonFinitePixelsEncodeAsSilent) {
  // NaN fails both clamp comparisons, so the seed kernel fed bernoulli(NaN);
  // the hardened encoder treats any non-finite pixel as rate 0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  PoissonEncoder enc(100, util::Rng(11));
  Tensor x(Shape{100, 4});
  for (std::int64_t t = 0; t < 100; ++t) {
    x[t * 4 + 0] = nan;
    x[t * 4 + 1] = inf;   // non-finite, silent (not clamped to 1)
    x[t * 4 + 2] = -inf;
    x[t * 4 + 3] = 1.0f;  // sanity: saturated channel still fires
  }
  const Tensor z = enc.forward(x, nn::Mode::kTrain);
  double rate[4] = {0, 0, 0, 0};
  for (std::int64_t t = 0; t < 100; ++t)
    for (int k = 0; k < 4; ++k) {
      // NOLINTNEXTLINE(snnsec-float-eq): LIF spikes are exactly 0 or 1 by construction
      EXPECT_TRUE(z[t * 4 + k] == 0.0f || z[t * 4 + k] == 1.0f);
      rate[k] += z[t * 4 + k];
    }
  EXPECT_DOUBLE_EQ(rate[0], 0.0);
  EXPECT_DOUBLE_EQ(rate[1], 0.0);
  EXPECT_DOUBLE_EQ(rate[2], 0.0);
  EXPECT_DOUBLE_EQ(rate[3], 100.0);
  // The straight-through gate must also stay closed on poisoned pixels.
  const Tensor dx = enc.backward(Tensor::ones(Shape{100, 4}));
  for (std::int64_t t = 0; t < 100; ++t) {
    EXPECT_FLOAT_EQ(dx[t * 4 + 0], 0.0f);
    EXPECT_FLOAT_EQ(dx[t * 4 + 1], 0.0f);
  }
}

TEST(PoissonEncoder, StraightThroughGradientGating) {
  PoissonEncoder enc(4, util::Rng(7));
  const Tensor x =
      Tensor::from_vector(Shape{4, 1}, {-0.5f, 0.5f, 0.5f, 2.0f});
  enc.forward(x, nn::Mode::kTrain);
  const Tensor dx = enc.backward(Tensor::ones(Shape{4, 1}));
  EXPECT_FLOAT_EQ(dx[0], 0.0f);  // below range: clamp kills gradient
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);  // above range
}

// ---- bit-identity with the spike-storing formulation ----------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// LifLayer as formulated with a cached spike slab: one serial forward over
// the whole population that stores z and vd and sums the spikes in double,
// and a reverse-time BPTT that reads the stored z.
struct LifReference {
  LifParameters p;
  Surrogate surrogate;
  std::int64_t time_steps;
  Tensor z;
  Tensor vd;
  double spike_rate = 0.0;

  LifReference(const LifParameters& params, const Surrogate& s,
               std::int64_t t, const Tensor& x)
      : p(params), surrogate(s), time_steps(t), z(x.shape()), vd(x.shape()) {
    const std::int64_t per_step = x.numel() / time_steps;
    std::vector<float> i(static_cast<std::size_t>(per_step), 0.0f);
    std::vector<float> v(static_cast<std::size_t>(per_step), 0.0f);
    double sum = 0.0;
    for (std::int64_t step = 0; step < time_steps; ++step) {
      const std::int64_t off = step * per_step;
      lif_step(p, per_step, x.data() + off, i.data(), v.data(),
               z.data() + off, vd.data() + off);
      for (std::int64_t k = 0; k < per_step; ++k) sum += z[off + k];
    }
    spike_rate = sum / static_cast<double>(x.numel());
  }

  Tensor backward(const Tensor& g) const {
    const std::int64_t per_step = g.numel() / time_steps;
    Tensor dx(g.shape());
    std::vector<float> gv(static_cast<std::size_t>(per_step), 0.0f);
    std::vector<float> gi(static_cast<std::size_t>(per_step), 0.0f);
    const float a = p.a();
    const float b = p.b();
    surrogate.with_grad([&](auto sg) {
      for (std::int64_t step = time_steps - 1; step >= 0; --step) {
        for (std::int64_t k = 0; k < per_step; ++k) {
          const std::int64_t e = step * per_step + k;
          const auto kk = static_cast<std::size_t>(k);
          const float carry_v = gv[kk];
          const float carry_i = gi[kk];
          dx[e] = carry_i;
          const float tdz = g[e] + carry_v * (p.v_reset - vd[e]);
          const float gvd =
              carry_v * (1.0f - z[e]) + tdz * sg(vd[e] - p.v_th);
          gv[kk] = gvd * (1.0f - a);
          gi[kk] = gvd * a + carry_i * b;
        }
      }
    });
    return dx;
  }
};

constexpr std::int64_t kBitT = 6;
constexpr std::int64_t kBitF = 37;  // odd, so chunks end in vector tails

// v_th = a * 7 rounded, so an input of 7 at t = 0 puts vd at t = 1 exactly
// on the threshold (v and i start at 0); `x_above` puts it one ulp above.
struct ThresholdCase {
  LifParameters p;
  float x_above = 0.0f;

  ThresholdCase() {
    const float a = p.a();
    p.v_th = a * 7.0f;
    const float target = std::nextafter(p.v_th, 2.0f);
    for (float x = 7.0f; x < 7.1f; x = std::nextafter(x, 8.0f))
      if (a * x == target) {  // NOLINT(snnsec-float-eq): exact ulp search
        x_above = x;
        break;
      }
  }

  // [T*N, F] inputs in [0, 2) with sample 0's neurons 0 and 1 driven onto
  // the threshold and one ulp above it at t = 1.
  Tensor input(std::int64_t n, util::Rng& rng) const {
    Tensor x = Tensor::rand_uniform(Shape{kBitT * n, kBitF}, rng, 0.0f, 2.0f);
    x[0] = 7.0f;
    x[1] = x_above;
    return x;
  }
};

// One train/attack forward + backward of `lif` against the reference.
void expect_matches_reference(LifLayer& lif, const ThresholdCase& tc,
                              nn::Mode mode, const Tensor& x,
                              util::Rng& rng) {
  const LifReference ref(tc.p, lif.surrogate(), kBitT, x);
  const Tensor z = lif.forward(x, mode);
  EXPECT_TRUE(same_bits(z, ref.z));
  EXPECT_TRUE(same_bits(lif.last_spike_rate(), ref.spike_rate))
      << lif.last_spike_rate() << " vs " << ref.spike_rate;
  const Tensor g = Tensor::randn(x.shape(), rng);
  EXPECT_TRUE(same_bits(lif.backward(g), ref.backward(g)));
}

TEST(LifLayerBitwise, MatchesSpikeStoringReference) {
  const ThresholdCase tc;
  ASSERT_GT(tc.x_above, 0.0f) << "no input lands one ulp above v_th";
  for (const SurrogateKind kind :
       {SurrogateKind::kSuperSpike, SurrogateKind::kTriangle,
        SurrogateKind::kSigmoidDeriv, SurrogateKind::kStraightThrough}) {
    for (const nn::Mode mode : {nn::Mode::kTrain, nn::Mode::kAttack}) {
      SCOPED_TRACE(static_cast<int>(kind) * 10 + static_cast<int>(mode));
      LifLayer lif(kBitT, tc.p, Surrogate{kind, 2.0f});
      util::Rng rng(40 + static_cast<std::uint64_t>(kind));
      const Tensor x = tc.input(3, rng);
      const LifReference ref(tc.p, lif.surrogate(), kBitT, x);
      // The input really reaches both threshold cases at t = 1.
      ASSERT_EQ(ref.vd[3 * kBitF], tc.p.v_th);
      ASSERT_EQ(ref.vd[3 * kBitF + 1], std::nextafter(tc.p.v_th, 2.0f));
      EXPECT_EQ(ref.z[3 * kBitF], 0.0f);
      EXPECT_EQ(ref.z[3 * kBitF + 1], 1.0f);
      expect_matches_reference(lif, tc, mode, x, rng);
    }
  }
}

TEST(LifLayerBitwise, AttackForwardsAcrossBatchSizes) {
  // The membrane cache is reused while the shape holds and rebuilt when the
  // batch changes; an eval forward in between must leave it alone.
  const ThresholdCase tc;
  LifLayer lif(kBitT, tc.p, Surrogate{SurrogateKind::kSuperSpike, 2.0f});
  util::Rng rng(77);
  for (const std::int64_t n : {3, 5, 5, 1, 3, 3}) {
    SCOPED_TRACE(n);
    expect_matches_reference(lif, tc, nn::Mode::kAttack, tc.input(n, rng),
                             rng);
  }
  const Tensor x = tc.input(2, rng);
  const LifReference ref(tc.p, lif.surrogate(), kBitT, x);
  lif.forward(x, nn::Mode::kAttack);
  lif.forward(tc.input(4, rng), nn::Mode::kEval);
  const Tensor g = Tensor::randn(x.shape(), rng);
  EXPECT_TRUE(same_bits(lif.backward(g), ref.backward(g)));
}

TEST(LifLayerBitwise, ProbedSpikeCountIsExact) {
  const ThresholdCase tc;
  LifLayer lif(kBitT, tc.p, Surrogate{});
  lif.set_probe(true);
  util::Rng rng(5);
  const Tensor z = lif.forward(tc.input(4, rng), nn::Mode::kEval);
  std::int64_t spikes = 0;
  for (std::int64_t i = 0; i < z.numel(); ++i) spikes += z[i] > 0.5f ? 1 : 0;
  EXPECT_EQ(lif.last_activity().spike_count, spikes);
  EXPECT_TRUE(same_bits(lif.last_spike_rate(),
                        static_cast<double>(spikes) /
                            static_cast<double>(z.numel())));
}

TEST(LifLayer, NamesDescribeConfiguration) {
  LifLayer lif(12, params_with_vth(1.5f), Surrogate{});
  EXPECT_NE(lif.name().find("T=12"), std::string::npos);
  EXPECT_NE(lif.name().find("1.5"), std::string::npos);
  LiReadout li(12, params_with_vth(1.0f));
  EXPECT_NE(li.name().find("max-over-time"), std::string::npos);
}

}  // namespace
}  // namespace snnsec::snn
