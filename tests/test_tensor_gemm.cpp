// GEMM correctness against a naive reference across sizes and transposes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace snnsec::tensor {
namespace {

/// Naive triple-loop reference.
Tensor ref_matmul(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  const std::int64_t m = (ta == Trans::kNo) ? a.dim(0) : a.dim(1);
  const std::int64_t k = (ta == Trans::kNo) ? a.dim(1) : a.dim(0);
  const std::int64_t n = (tb == Trans::kNo) ? b.dim(1) : b.dim(0);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = (ta == Trans::kNo) ? a.at({i, kk}) : a.at({kk, i});
        const float bv = (tb == Trans::kNo) ? b.at({kk, j}) : b.at({j, kk});
        acc += static_cast<double>(av) * bv;
      }
      c.at({i, j}) = static_cast<float>(acc);
    }
  return c;
}

using GemmCase = std::tuple<std::int64_t, std::int64_t, std::int64_t, int>;

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [m, k, n, trans_code] = GetParam();
  const Trans ta = (trans_code & 1) ? Trans::kYes : Trans::kNo;
  const Trans tb = (trans_code & 2) ? Trans::kYes : Trans::kNo;
  util::Rng rng(static_cast<std::uint64_t>(m * 131 + k * 17 + n + trans_code));
  const Tensor a = Tensor::randn(
      (ta == Trans::kNo) ? Shape{m, k} : Shape{k, m}, rng);
  const Tensor b = Tensor::randn(
      (tb == Trans::kNo) ? Shape{k, n} : Shape{n, k}, rng);
  const Tensor got = matmul(a, b, ta, tb);
  const Tensor want = ref_matmul(a, b, ta, tb);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-3f) << "at flat index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTransposes, GemmTest,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 3, 17, 64),
                       ::testing::Values<std::int64_t>(1, 5, 32),
                       ::testing::Values<std::int64_t>(1, 7, 33),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Gemm, AlphaBetaSemantics) {
  util::Rng rng(1);
  const Tensor a = Tensor::randn(Shape{4, 3}, rng);
  const Tensor b = Tensor::randn(Shape{3, 5}, rng);
  Tensor c = Tensor::full(Shape{4, 5}, 2.0f);
  gemm(Trans::kNo, Trans::kNo, 0.5f, a, b, 0.25f, c);
  const Tensor ab = ref_matmul(a, b, Trans::kNo, Trans::kNo);
  for (std::int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c[i], 0.5f * ab[i] + 0.25f * 2.0f, 1e-4f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  util::Rng rng(2);
  const Tensor a = Tensor::randn(Shape{2, 2}, rng);
  const Tensor b = Tensor::randn(Shape{2, 2}, rng);
  Tensor c = Tensor::full(Shape{2, 2}, 1e30f);
  gemm(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, c);
  const Tensor want = ref_matmul(a, b, Trans::kNo, Trans::kNo);
  EXPECT_TRUE(c.allclose(want, 1e-4f));
}

TEST(Gemm, SkipsZeroRowsCorrectly) {
  // The kernel short-circuits zero A entries (spike sparsity); verify a
  // half-zero matrix still multiplies exactly.
  util::Rng rng(3);
  Tensor a = Tensor::randn(Shape{6, 8}, rng);
  for (std::int64_t i = 0; i < a.numel(); i += 2) a[i] = 0.0f;
  const Tensor b = Tensor::randn(Shape{8, 4}, rng);
  EXPECT_TRUE(matmul(a, b).allclose(ref_matmul(a, b, Trans::kNo, Trans::kNo),
                                    1e-4f));
}

// ---- blocked kernel vs the frozen seed kernel ------------------------------

/// |got - ref| <= kRelTol * (1 + |ref|): 1e-5 relative with an absolute
/// floor so near-cancelled outputs don't demand impossible precision.
void expect_close_to_reference(const Tensor& got, const Tensor& ref) {
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float tol = 1e-5f * (1.0f + std::fabs(ref[i]));
    EXPECT_NEAR(got[i], ref[i], tol) << "at flat index " << i;
  }
}

TEST(GemmProperty, BlockedMatchesReferenceOnRandomizedShapes) {
  // Randomized shapes biased toward tile-remainder edges: m=1, k=1, exact
  // multiples of the register tile, one-past and one-short of MC/KC/NC
  // boundaries, plus every transpose combination and alpha/beta mix.
  util::Rng rng(20240807);
  const std::int64_t m_sizes[] = {1, 2, 3, 4, 5, 7, 8, 31, 64, 127, 129};
  const std::int64_t k_sizes[] = {1, 2, 15, 64, 255, 257};
  const std::int64_t n_sizes[] = {1, 7, 8, 9, 63, 120};
  const float alphas[] = {1.0f, -0.5f, 2.0f};
  const float betas[] = {0.0f, 1.0f, 0.25f};
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t m = m_sizes[rng.uniform_int(0, 10)];
    const std::int64_t k = k_sizes[rng.uniform_int(0, 5)];
    const std::int64_t n = n_sizes[rng.uniform_int(0, 5)];
    const Trans ta = rng.bernoulli(0.5) ? Trans::kYes : Trans::kNo;
    const Trans tb = rng.bernoulli(0.5) ? Trans::kYes : Trans::kNo;
    const float alpha = alphas[rng.uniform_int(0, 2)];
    const float beta = betas[rng.uniform_int(0, 2)];
    const Tensor a = Tensor::randn(
        (ta == Trans::kNo) ? Shape{m, k} : Shape{k, m}, rng);
    const Tensor b = Tensor::randn(
        (tb == Trans::kNo) ? Shape{k, n} : Shape{n, k}, rng);
    Tensor c_init = Tensor::randn(Shape{m, n}, rng);
    Tensor got = c_init;
    Tensor want = c_init;
    gemm(ta, tb, alpha, a, b, beta, got);
    gemm_reference(ta, tb, alpha, a, b, beta, want);
    SCOPED_TRACE(::testing::Message()
                 << "m=" << m << " k=" << k << " n=" << n << " ta="
                 << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes)
                 << " alpha=" << alpha << " beta=" << beta);
    expect_close_to_reference(got, want);
  }
}

TEST(GemmProperty, MatmulMatchesReferenceOnSpikeAndDenseOperands) {
  util::Rng rng(100);
  const Tensor spikes = Tensor::bernoulli(Shape{64, 256}, rng, 0.1);
  const Tensor dense = Tensor::randn(Shape{64, 256}, rng);
  const Tensor w = Tensor::randn(Shape{256, 32}, rng);
  // A spike-train operand and a dense one both agree with the reference.
  Tensor ref_s(Shape{64, 32});
  gemm_reference(Trans::kNo, Trans::kNo, 1.0f, spikes, w, 0.0f, ref_s);
  expect_close_to_reference(matmul(spikes, w), ref_s);
  Tensor ref_d(Shape{64, 32});
  gemm_reference(Trans::kNo, Trans::kNo, 1.0f, dense, w, 0.0f, ref_d);
  expect_close_to_reference(matmul(dense, w), ref_d);
}

TEST(GemmRaw, StridedSubmatrixMultiplies) {
  // gemm_raw on a sub-block of a larger row-major buffer (lda/ldb/ldc wider
  // than the logical shapes) — the layout the conv hot path feeds it.
  util::Rng rng(101);
  const std::int64_t lda = 13, ldb = 11, ldc = 17;
  const std::int64_t m = 5, k = 7, n = 6;
  const Tensor abuf = Tensor::randn(Shape{m, lda}, rng);
  const Tensor bbuf = Tensor::randn(Shape{k, ldb}, rng);
  std::vector<float> cbuf(static_cast<std::size_t>(m * ldc), -7.0f);
  gemm_raw(Trans::kNo, Trans::kNo, m, n, k, 1.0f, abuf.data(), lda,
           bbuf.data(), ldb, 0.0f, cbuf.data(), ldc);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(abuf[i * lda + kk]) * bbuf[kk * ldb + j];
      EXPECT_NEAR(cbuf[static_cast<std::size_t>(i * ldc + j)],
                  static_cast<float>(acc), 1e-4f);
    }
  // Columns past n are untouched.
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = n; j < ldc; ++j)
      EXPECT_FLOAT_EQ(cbuf[static_cast<std::size_t>(i * ldc + j)], -7.0f);
}

TEST(Gemm, DimensionMismatchThrows) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{4, 5});
  EXPECT_THROW(matmul(a, b), util::Error);
  Tensor bad_c(Shape{3, 3});
  const Tensor ok_b(Shape{3, 5});
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, 1.0f, a, ok_b, 0.0f, bad_c),
               util::Error);
  EXPECT_THROW(matmul(Tensor(Shape{2}), Tensor(Shape{2})), util::Error);
}

}  // namespace
}  // namespace snnsec::tensor
