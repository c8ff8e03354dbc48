// LIF neuron dynamics: hand-computed trajectories and invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "snn/lif.hpp"
#include "util/error.hpp"

namespace snnsec::snn {
namespace {

LifParameters default_params() {
  LifParameters p;  // a = 0.1, b = 0.8 with the defaults
  return p;
}

TEST(LifParameters, DefaultFactors) {
  const LifParameters p = default_params();
  EXPECT_NEAR(p.a(), 0.1f, 1e-6f);
  EXPECT_NEAR(p.b(), 0.8f, 1e-6f);
  EXPECT_NO_THROW(p.validate());
  EXPECT_FALSE(p.to_string().empty());
}

TEST(LifParameters, UnstableDiscretizationRejected) {
  LifParameters p = default_params();
  p.dt = 1.0f;  // a = 100 -> unstable
  EXPECT_THROW(p.validate(), util::Error);
  p = default_params();
  p.tau_syn_inv = 2000.0f;  // b = -1
  EXPECT_THROW(p.validate(), util::Error);
  p = default_params();
  p.v_th = -1.0f;  // below leak
  EXPECT_THROW(p.validate(), util::Error);
  p = default_params();
  p.dt = 0.0f;
  EXPECT_THROW(p.validate(), util::Error);
}

TEST(LifStep, HandComputedTrajectory) {
  // One neuron, constant input current x = 1, defaults (a=0.1, b=0.8).
  // Step math:
  //   vd_t = 0.9 v + 0.1 i ; id = 0.8 i ; z = vd > 1 ; i' = id + 1
  const LifParameters p = default_params();
  float i = 0.0f, v = 0.0f, z = 0.0f, vd = 0.0f;
  const float x = 1.0f;

  // t=0: vd = 0, no spike, i = 1.
  lif_step(p, 1, &x, &i, &v, &z, &vd);
  EXPECT_FLOAT_EQ(vd, 0.0f);
  EXPECT_FLOAT_EQ(z, 0.0f);
  EXPECT_FLOAT_EQ(i, 1.0f);
  EXPECT_FLOAT_EQ(v, 0.0f);

  // t=1: vd = 0.9*0 + 0.1*1 = 0.1; i = 0.8*1 + 1 = 1.8.
  lif_step(p, 1, &x, &i, &v, &z, &vd);
  EXPECT_NEAR(vd, 0.1f, 1e-6f);
  EXPECT_FLOAT_EQ(z, 0.0f);
  EXPECT_NEAR(i, 1.8f, 1e-6f);

  // t=2: vd = 0.9*0.1 + 0.1*1.8 = 0.27; i = 0.8*1.8 + 1 = 2.44.
  lif_step(p, 1, &x, &i, &v, &z, &vd);
  EXPECT_NEAR(vd, 0.27f, 1e-5f);
  EXPECT_NEAR(i, 2.44f, 1e-5f);
}

TEST(LifStep, FiresAndResetsAtThreshold) {
  const LifParameters p = default_params();
  float i = 0.0f, v = 0.0f, z = 0.0f, vd = 0.0f;
  const float x = 2.0f;
  bool fired = false;
  for (int t = 0; t < 30 && !fired; ++t) {
    lif_step(p, 1, &x, &i, &v, &z, &vd);
    // NOLINTNEXTLINE(snnsec-float-eq): LIF spikes are exactly 0 or 1 by construction
    if (z == 1.0f) {
      fired = true;
      EXPECT_GT(vd, p.v_th);                // crossed pre-reset
      EXPECT_FLOAT_EQ(v, p.v_reset);        // reset applied
    } else {
      EXPECT_FLOAT_EQ(v, vd);               // no reset without spike
    }
  }
  EXPECT_TRUE(fired) << "constant suprathreshold current must fire";
}

TEST(LifStep, HigherThresholdFiresLater) {
  auto first_spike_time = [](float v_th) {
    LifParameters p = default_params();
    p.v_th = v_th;
    float i = 0.0f, v = 0.0f, z = 0.0f, vd = 0.0f;
    const float x = 1.5f;
    for (int t = 0; t < 200; ++t) {
      lif_step(p, 1, &x, &i, &v, &z, &vd);
      // NOLINTNEXTLINE(snnsec-float-eq): LIF spikes are exactly 0 or 1 by construction
      if (z == 1.0f) return t;
    }
    return 1000;
  };
  const int t_low = first_spike_time(0.5f);
  const int t_mid = first_spike_time(1.0f);
  const int t_high = first_spike_time(2.0f);
  EXPECT_LT(t_low, t_mid);
  EXPECT_LT(t_mid, t_high);
}

TEST(LifStep, SubthresholdNeverFires) {
  // Steady state v = i = x / (1 - b) = 5 x; with x = 0.15, v_ss = 0.75 < 1.
  const LifParameters p = default_params();
  float i = 0.0f, v = 0.0f, z = 0.0f, vd = 0.0f;
  const float x = 0.15f;
  for (int t = 0; t < 500; ++t) {
    lif_step(p, 1, &x, &i, &v, &z, &vd);
    EXPECT_FLOAT_EQ(z, 0.0f);
  }
  EXPECT_NEAR(v, 0.75f, 0.01f);
}

TEST(LifStep, ZeroInputDecaysToLeak) {
  const LifParameters p = default_params();
  float i = 5.0f, v = 0.9f, z = 0.0f, vd = 0.0f;
  const float x = 0.0f;
  // Note: stored current keeps charging the membrane briefly; with v_th=10
  // nothing fires and everything decays to the leak potential.
  LifParameters quiet = p;
  quiet.v_th = 10.0f;
  for (int t = 0; t < 300; ++t)
    lif_step(quiet, 1, &x, &i, &v, &z, &vd);
  EXPECT_NEAR(v, quiet.v_leak, 1e-3f);
  EXPECT_NEAR(i, 0.0f, 1e-3f);
}

/// Populations of n neurons for the one-call vs per-element checks: every
/// fourth neuron sits exactly on the threshold after the decay (v = i = v_th
/// with v_leak = 0 gives vd = v_th, which must NOT fire), every fourth one
/// ulp above it, and the rest random, with -0.0f in the state and input.
struct Population {
  std::vector<float> x, i, v;
};

Population edge_population(std::int64_t n, float v_th, std::uint32_t seed) {
  Population pop;
  const auto sz = static_cast<std::size_t>(n);
  pop.x.resize(sz);
  pop.i.resize(sz);
  pop.v.resize(sz);
  std::uint32_t r = seed;
  const auto next = [&r] {
    r = r * 1664525u + 1013904223u;
    return static_cast<float>(r >> 8) / static_cast<float>(1u << 24);
  };
  for (std::size_t k = 0; k < sz; ++k) {
    switch (k % 4) {
      case 0:
        pop.v[k] = v_th;
        pop.i[k] = v_th;
        break;
      case 1:
        pop.v[k] = std::nextafter(v_th, 2.0f * v_th);
        pop.i[k] = pop.v[k];
        break;
      case 2:
        pop.v[k] = -0.0f;
        pop.i[k] = -0.0f;
        break;
      default:
        pop.v[k] = 2.0f * v_th * next() - 0.5f * v_th;
        pop.i[k] = 4.0f * next() - 1.0f;
    }
    // Strong input on every third neuron: it refires right after a reset.
    pop.x[k] = k % 3 == 0 ? 12.0f * v_th : (k % 5 == 0 ? -0.0f : next());
  }
  return pop;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The v3 clone runs an n-element call through its vector body and a scalar
// tail; a one-element call runs the tail alone. The two must round every
// element identically (memcmp), or AnytimeRunner (whole slab) and LifLayer
// (chunks) would diverge. n covers below, at and just past one 8-lane
// vector, and several vectors plus a tail.
TEST(LifStep, VectorizedMatchesScalar) {
  LifParameters reset_nonzero = default_params();
  reset_nonzero.v_reset = 0.25f;
  LifParameters reset_neg_zero = default_params();
  reset_neg_zero.v_reset = -0.0f;
  for (const LifParameters& p :
       {default_params(), reset_nonzero, reset_neg_zero}) {
    for (const std::int64_t n : {1, 7, 8, 9, 17, 31, 1000}) {
      Population pop =
          edge_population(n, p.v_th, static_cast<std::uint32_t>(n));
      Population ref = pop;
      const auto sz = static_cast<std::size_t>(n);
      std::vector<float> z(sz), vd(sz), rz(sz), rvd(sz);
      for (int t = 0; t < 12; ++t) {
        lif_step(p, n, pop.x.data(), pop.i.data(), pop.v.data(), z.data(),
                 vd.data());
        for (std::size_t k = 0; k < sz; ++k)
          lif_step(p, 1, &ref.x[k], &ref.i[k], &ref.v[k], &rz[k], &rvd[k]);
        ASSERT_TRUE(same_bits(z, rz)) << "z, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(vd, rvd)) << "vd, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(pop.v, ref.v)) << "v, n=" << n << " t=" << t;
        ASSERT_TRUE(same_bits(pop.i, ref.i)) << "i, n=" << n << " t=" << t;
      }
    }
  }
}

TEST(LifStep, MembraneExactlyAtThresholdDoesNotFire) {
  const LifParameters p = default_params();
  Population pop = edge_population(9, p.v_th, 1u);
  std::vector<float> z(9), vd(9);
  lif_step(p, 9, pop.x.data(), pop.i.data(), pop.v.data(), z.data(),
           vd.data());
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
    EXPECT_EQ(vd[k], p.v_th) << k;
    EXPECT_EQ(z[k], 0.0f) << k;
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
    EXPECT_GT(vd[k], p.v_th) << k;
    EXPECT_EQ(z[k], 1.0f) << k;
    EXPECT_EQ(pop.v[k], p.v_reset) << k;
  }
}

TEST(LiStep, OneCallEqualsPerElementCalls) {
  const LifParameters p = default_params();
  for (const std::int64_t n : {1, 7, 8, 9, 31, 1000}) {
    Population pop =
        edge_population(n, p.v_th, static_cast<std::uint32_t>(n));
    Population ref = pop;
    const auto sz = static_cast<std::size_t>(n);
    std::vector<float> out(sz), rout(sz);
    for (int t = 0; t < 12; ++t) {
      li_step(p, n, pop.x.data(), pop.i.data(), pop.v.data(), out.data());
      for (std::size_t k = 0; k < sz; ++k)
        li_step(p, 1, &ref.x[k], &ref.i[k], &ref.v[k], &rout[k]);
      ASSERT_TRUE(same_bits(out, rout)) << "n=" << n << " t=" << t;
      ASSERT_TRUE(same_bits(pop.i, ref.i)) << "n=" << n << " t=" << t;
    }
  }
}

TEST(LiStep, IntegratesWithoutSpiking) {
  const LifParameters p = default_params();
  float i = 0.0f, v = 0.0f, trace = 0.0f;
  const float x = 1.0f;
  float prev = -1.0f;
  for (int t = 0; t < 100; ++t) {
    li_step(p, 1, &x, &i, &v, &trace);
    EXPECT_GE(trace, prev);  // monotone approach to steady state
    prev = trace;
  }
  // Steady state: v = i = x / (1 - b) = 5.
  EXPECT_NEAR(trace, 5.0f, 0.05f);
}

TEST(LiStep, TraceEqualsMembrane) {
  const LifParameters p = default_params();
  float i = 0.0f, v = 0.0f, trace = 0.0f;
  const float x = 0.7f;
  for (int t = 0; t < 10; ++t) {
    li_step(p, 1, &x, &i, &v, &trace);
    EXPECT_FLOAT_EQ(trace, v);
  }
}

}  // namespace
}  // namespace snnsec::snn
