// Event-driven spike kernels: compressed event lists, the event-accumulate
// GEMM, both conv formulations (the patch-list reference, defined here, and
// the production scatter), and the event-input Linear and Conv2d layers.
//
// The determinism assertions here are the teeth behind DESIGN.md §14: the
// event kernels must be bit-identical across batch sizes and serial/parallel
// execution, because layers resolve a kernel once and serve relies on
// replicas agreeing to the bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "im2col_reference.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/spike_events.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

// Counting operator-new hook for the zero-allocation steady-state tests.
// Counts every heap allocation in the binary; tests snapshot the counter
// around warmed-up hot-path calls and assert the delta is zero.
//
// GCC's -Wmismatched-new-delete heuristic misfires when it inlines these
// replacements into gtest internals (new -> malloc paired with free IS the
// matched path here); same device as the bench binaries, which happen not
// to trip the inliner.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace snnsec::tensor {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Spike-like operand: bernoulli(rate) mask times non-binary magnitudes, so
/// the tests cover graded events (pooled rates, weighted spikes), not just
/// 0/1 slabs.
Tensor spike_operand(Shape shape, double rate, util::Rng& rng) {
  Tensor mask = Tensor::bernoulli(shape, rng, rate);
  const Tensor mag = Tensor::rand_uniform(shape, rng, 0.5f, 1.5f);
  float* pm = mask.data();
  const float* pg = mag.data();
  for (std::int64_t i = 0; i < mask.numel(); ++i) pm[i] *= pg[i];
  return mask;
}

/// The event lists of a conv input batch's im2row matrix [batch*OH*OW,
/// patch] — the transpose of the im2col column matrix — by a direct scan of
/// each output pixel's receptive field in im2col's row order
/// (c*KH*KW + kh*KW + kw), so conv as a GEMM is
/// Ct [batch*OH*OW, Cout] = events x Wᵀ. This patch-list formulation
/// duplicates every input event up to KH*KW-fold, which is why production
/// runs the scatter kernel conv_events; it is the reference that kernel is
/// checked against.
EventRows build_conv_events(const ConvGeometry& g, const float* images,
                            std::int64_t batch, util::Workspace& ws) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t patch = g.patch_size();
  EventRows ev;
  ev.rows = batch * oh * ow;
  ev.cols = patch;
  ev.stride = patch;
  std::int32_t* cnt =
      ws.alloc<std::int32_t>(static_cast<std::size_t>(ev.rows));
  std::int32_t* idx =
      ws.alloc<std::int32_t>(static_cast<std::size_t>(ev.rows * patch));
  float* val = ws.alloc<float>(static_cast<std::size_t>(ev.rows * patch));
  for (std::int64_t row = 0; row < ev.rows; ++row) {
    const std::int64_t i = row / (oh * ow);
    const std::int64_t oy = row % (oh * ow) / ow;
    const std::int64_t ox = row % ow;
    std::int32_t c = 0;
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ch = p / (g.kernel_h * g.kernel_w);
      const std::int64_t iy = oy * g.stride_h + p / g.kernel_w % g.kernel_h -
                              g.pad_h;
      const std::int64_t ix = ox * g.stride_w + p % g.kernel_w - g.pad_w;
      if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width) continue;
      const float v =
          images[((i * g.channels + ch) * g.height + iy) * g.width + ix];
      // NOLINTNEXTLINE(snnsec-float-eq): event lists drop exact zeros only
      if (v == 0.0f) continue;
      idx[row * patch + c] = static_cast<std::int32_t>(p);
      val[row * patch + c] = v;
      ++c;
    }
    cnt[row] = c;
  }
  ev.count = cnt;
  ev.index = idx;
  ev.value = val;
  return ev;
}

/// Naive dense reference for C = alpha * A * op(B) + beta * C.
void ref_gemm(const Tensor& a, const Tensor& b, Trans trans_b, float alpha,
              float beta, Tensor& c) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = (trans_b == Trans::kNo) ? b.dim(1) : b.dim(0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float bv =
            (trans_b == Trans::kNo) ? b.at({p, j}) : b.at({j, p});
        acc += static_cast<double>(a.at({i, p})) * bv;
      }
      c.at({i, j}) =
          static_cast<float>(alpha * acc + static_cast<double>(beta) *
                                               static_cast<double>(c.at({i, j})));
    }
}

TEST(BuildEventRows, CompressesRowsInColumnOrder) {
  // 4 rows x 5 cols embedded in lda = 7 (strided view): an empty row, a
  // full row, and rows with scattered events. The padding columns (>= 5)
  // must never be read.
  const std::int64_t rows = 4, cols = 5, lda = 7;
  std::vector<float> a(static_cast<std::size_t>(rows * lda), 9.0f);
  auto set_row = [&](std::int64_t r, std::initializer_list<float> vals) {
    std::int64_t j = 0;
    for (float v : vals) a[static_cast<std::size_t>(r * lda + j++)] = v;
  };
  set_row(0, {0.0f, 2.0f, 0.0f, 0.0f, -1.0f});
  set_row(1, {0.0f, 0.0f, 0.0f, 0.0f, 0.0f});  // silent row
  set_row(2, {1.0f, 1.0f, 1.0f, 1.0f, 1.0f});  // saturated row
  set_row(3, {0.0f, 0.0f, 0.5f, 0.0f, 0.0f});

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_event_rows(a.data(), lda, rows, cols, ws);
  ASSERT_EQ(ev.rows, rows);
  ASSERT_EQ(ev.cols, cols);
  ASSERT_GE(ev.stride, cols);

  EXPECT_EQ(ev.count[0], 2);
  EXPECT_EQ(ev.count[1], 0);
  EXPECT_EQ(ev.count[2], 5);
  EXPECT_EQ(ev.count[3], 1);
  // Row 0: events at columns 1 and 4, in increasing column order.
  EXPECT_EQ(ev.index[0 * ev.stride + 0], 1);
  EXPECT_EQ(ev.index[0 * ev.stride + 1], 4);
  EXPECT_EQ(ev.value[0 * ev.stride + 0], 2.0f);
  EXPECT_EQ(ev.value[0 * ev.stride + 1], -1.0f);
  // Row 2: all five columns.
  for (std::int32_t e = 0; e < 5; ++e)
    EXPECT_EQ(ev.index[2 * ev.stride + e], e);
  EXPECT_EQ(ev.index[3 * ev.stride + 0], 2);
  EXPECT_EQ(ev.value[3 * ev.stride + 0], 0.5f);
}

TEST(GemmEvents, MatchesDenseAcrossFiringRates) {
  // The acceptance-relevant rates: 1% (near-silent), 5/20% (SNN operating
  // points), 50% (worst case where the event path must still be correct).
  util::Workspace& ws = util::Workspace::local();
  for (const double rate : {0.01, 0.05, 0.20, 0.50}) {
    util::Rng rng(static_cast<std::uint64_t>(rate * 1000) + 3);
    const std::int64_t m = 23, k = 67, n = 19;
    const Tensor a = spike_operand(Shape{m, k}, rate, rng);
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      const Tensor b = Tensor::randn(
          (tb == Trans::kNo) ? Shape{k, n} : Shape{n, k}, rng);
      Tensor want = Tensor::rand_uniform(Shape{m, n}, rng, -1.0f, 1.0f);
      Tensor got = want.clone();
      ref_gemm(a, b, tb, /*alpha=*/0.75f, /*beta=*/0.5f, want);
      util::Workspace::Scope scope(ws);
      const EventRows ev = build_event_rows(a.data(), k, m, k, ws);
      gemm_events(ev, tb, n, 0.75f, b.data(), b.dim(1), 0.5f, got.data(), n);
      for (std::int64_t i = 0; i < got.numel(); ++i)
        ASSERT_NEAR(got[i], want[i], 2e-4f)
            << "rate " << rate << " trans_b " << (tb == Trans::kYes)
            << " flat " << i;
    }
  }
}

TEST(GemmEvents, StridedOperandsAndViews) {
  // Operand, B, and C all embedded with leading dimensions larger than the
  // logical widths; the guard values must survive untouched.
  const std::int64_t m = 9, k = 21, n = 11;
  const std::int64_t lda = 29, ldb = 17, ldc = 13;
  util::Rng rng(42);
  std::vector<float> abuf(static_cast<std::size_t>(m * lda), 0.0f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < k; ++j)
      abuf[static_cast<std::size_t>(i * lda + j)] =
          (rng.uniform() < 0.2) ? static_cast<float>(rng.uniform()) : 0.0f;
  std::vector<float> bbuf(static_cast<std::size_t>(k * ldb));
  for (auto& v : bbuf) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  std::vector<float> cbuf(static_cast<std::size_t>(m * ldc), 7.0f);

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_event_rows(abuf.data(), lda, m, k, ws);
  gemm_events(ev, Trans::kNo, n, 1.0f, bbuf.data(), ldb, 0.0f, cbuf.data(),
              ldc);

  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(abuf[static_cast<std::size_t>(i * lda + p)]) *
               bbuf[static_cast<std::size_t>(p * ldb + j)];
      EXPECT_NEAR(cbuf[static_cast<std::size_t>(i * ldc + j)],
                  static_cast<float>(acc), 1e-4f);
    }
    // Guard columns beyond n are untouched.
    for (std::int64_t j = n; j < ldc; ++j)
      EXPECT_EQ(cbuf[static_cast<std::size_t>(i * ldc + j)], 7.0f);
  }
}

TEST(GemmEvents, SerialAndParallelBitIdentical) {
  // Large enough that the full call crosses the parallel threshold; a
  // single-row view of the same event lists stays serial. Rows are
  // independent, so the two must agree to the bit.
  const std::int64_t m = 128, k = 128, n = 96;
  util::Rng rng(7);
  const Tensor a = spike_operand(Shape{m, k}, 0.15, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_event_rows(a.data(), k, m, k, ws);

  Tensor full(Shape{m, n});
  gemm_events(ev, Trans::kNo, n, 1.0f, b.data(), n, 0.0f, full.data(), n);

  Tensor row(Shape{1, n});
  for (std::int64_t i = 0; i < m; ++i) {
    EventRows one = ev;
    one.count = ev.count + i;
    one.index = ev.index + i * ev.stride;
    one.value = ev.value + i * ev.stride;
    one.rows = 1;
    gemm_events(one, Trans::kNo, n, 1.0f, b.data(), n, 0.0f, row.data(), n);
    EXPECT_EQ(std::memcmp(row.data(), full.data() + i * n,
                          static_cast<std::size_t>(n) * sizeof(float)),
              0)
        << "row " << i << " differs between parallel and serial execution";
  }
}

/// [m, k] operand whose row i holds exactly i % 10 events (random columns,
/// graded values), so every event-group remainder 0..3 and 0..2 full groups
/// of four occur.
Tensor counted_events_operand(std::int64_t m, std::int64_t k, util::Rng& rng) {
  Tensor a(Shape{m, k});
  for (std::int64_t i = 0; i < m; ++i) {
    std::vector<bool> used(static_cast<std::size_t>(k), false);
    std::int64_t placed = 0;
    while (placed < i % 10) {
      const auto col =
          static_cast<std::int64_t>(rng.uniform() * static_cast<double>(k)) %
          k;
      if (used[static_cast<std::size_t>(col)]) continue;
      used[static_cast<std::size_t>(col)] = true;
      a.at({i, col}) = 0.5f + static_cast<float>(rng.uniform());
      ++placed;
    }
  }
  return a;
}

// An event Linear computes events x W^T from the [out, in] weight as
// stored. gemm_events(kYes, W) reads W in place while the call has at most
// k events and packs W^T past that; both must be bit-identical to
// gemm_events(kNo, W^T) — the same per-output sums in the same order —
// for full calls (parallel once past the size threshold) and for one-row
// views of the same lists (always serial).
TEST(GemmEvents, TransposedWeightEqualsPackedTransposeBitwise) {
  struct Case {
    std::int64_t m, k, n;
  };
  // 8 rows: 28 events over k = 300 (in place, parallel). 10 rows over
  // k = 37: 45 events (packed, serial). 128 rows: packed, parallel.
  for (const Case cs :
       {Case{8, 300, 64}, Case{10, 37, 23}, Case{128, 37, 23}}) {
    util::Rng rng(static_cast<std::uint64_t>(cs.m * 1000 + cs.k));
    const Tensor a = counted_events_operand(cs.m, cs.k, rng);
    const Tensor w = Tensor::randn(Shape{cs.n, cs.k}, rng);  // [out, in]
    Tensor wt(Shape{cs.k, cs.n});
    for (std::int64_t p = 0; p < cs.k; ++p)
      for (std::int64_t j = 0; j < cs.n; ++j) wt.at({p, j}) = w.at({j, p});
    const Tensor c0 =
        Tensor::rand_uniform(Shape{cs.m, cs.n}, rng, -1.0f, 1.0f);
    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    const EventRows ev = build_event_rows(a.data(), cs.k, cs.m, cs.k, ws);
    for (const float beta : {0.0f, 1.0f}) {
      Tensor want = c0.clone();
      Tensor got = c0.clone();
      gemm_events(ev, Trans::kNo, cs.n, 1.0f, wt.data(), cs.n, beta,
                  want.data(), cs.n);
      gemm_events(ev, Trans::kYes, cs.n, 1.0f, w.data(), cs.k, beta,
                  got.data(), cs.n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(got.numel()) *
                                sizeof(float)),
                0)
          << "m=" << cs.m << " k=" << cs.k << " beta=" << beta;
      for (std::int64_t i = 0; i < cs.m; ++i) {
        EventRows one = ev;
        one.count = ev.count + i;
        one.index = ev.index + i * ev.stride;
        one.value = ev.value + i * ev.stride;
        one.rows = 1;
        Tensor row(Shape{1, cs.n});
        std::memcpy(row.data(), c0.data() + i * cs.n,
                    static_cast<std::size_t>(cs.n) * sizeof(float));
        gemm_events(one, Trans::kYes, cs.n, 1.0f, w.data(), cs.k, beta,
                    row.data(), cs.n);
        ASSERT_EQ(std::memcmp(row.data(), want.data() + i * cs.n,
                              static_cast<std::size_t>(cs.n) * sizeof(float)),
                  0)
            << "row " << i << " (" << i % 10 << " events) m=" << cs.m
            << " beta=" << beta;
      }
    }
  }
}

TEST(BuildConvEvents, MatchesIm2rowLowering) {
  // Reconstruct the dense im2row matrix from the event lists and compare
  // with the transpose of im2col's column matrix.
  ConvGeometry g;
  g.channels = 3;
  g.height = 9;
  g.width = 7;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.pad_h = 1;
  g.pad_w = 1;
  g.validate();
  const std::int64_t batch = 2;
  util::Rng rng(11);
  const Tensor x =
      spike_operand(Shape{batch, g.channels, g.height, g.width}, 0.25, rng);

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_conv_events(g, x.data(), batch, ws);
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  ASSERT_EQ(ev.rows, batch * ohw);
  ASSERT_EQ(ev.cols, patch);

  std::vector<float> cols(static_cast<std::size_t>(patch * ohw));
  for (std::int64_t i = 0; i < batch; ++i) {
    testutil::im2col(g, x.data() + i * g.channels * g.height * g.width,
                     cols.data());
    for (std::int64_t r = 0; r < ohw; ++r) {
      std::vector<float> dense(static_cast<std::size_t>(patch), 0.0f);
      const std::int64_t row = i * ohw + r;
      std::int32_t prev = -1;
      for (std::int32_t e = 0; e < ev.count[row]; ++e) {
        const std::int32_t p = ev.index[row * ev.stride + e];
        EXPECT_GT(p, prev) << "events out of patch order";
        prev = p;
        dense[static_cast<std::size_t>(p)] = ev.value[row * ev.stride + e];
      }
      for (std::int64_t p = 0; p < patch; ++p)
        ASSERT_EQ(dense[static_cast<std::size_t>(p)],
                  cols[static_cast<std::size_t>(p * ohw + r)])
            << "sample " << i << " out-pos " << r << " patch " << p;
    }
  }
}

TEST(ConvEvents, ScatterMatchesPatchListReference) {
  // The production scatter kernel against the independently-tested
  // patch-list formulation. Different summation association (one event at a
  // time vs 4-way grouped), so allclose rather than bitwise.
  ConvGeometry g;
  g.channels = 2;
  g.height = 12;
  g.width = 10;
  g.kernel_h = 5;
  g.kernel_w = 5;
  g.pad_h = 2;
  g.pad_w = 2;
  g.validate();
  const std::int64_t batch = 3, cout = 7;
  const std::int64_t ohw = g.out_h() * g.out_w();
  util::Rng rng(13);
  const Tensor x =
      spike_operand(Shape{batch, g.channels, g.height, g.width}, 0.2, rng);
  const Tensor w = Tensor::randn(Shape{cout, g.patch_size()}, rng);

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  std::vector<float> got(static_cast<std::size_t>(batch * ohw * cout));
  conv_events(g, x.data(), batch, w.data(), cout, got.data(), ws);

  std::vector<float> want(got.size(), 0.0f);
  {
    util::Workspace::Scope inner(ws);
    const EventRows ev = build_conv_events(g, x.data(), batch, ws);
    gemm_events(ev, Trans::kYes, cout, 1.0f, w.data(), g.patch_size(), 0.0f,
                want.data(), cout);
  }
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], 1e-4f) << "flat index " << i;
}

TEST(ConvEvents, BatchedVsSingleBitIdentical) {
  // Parallelism is over the batch only and each sample's events apply in a
  // fixed scan order, so slicing the batch must not change a single bit.
  ConvGeometry g;
  g.channels = 3;
  g.height = 8;
  g.width = 8;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.pad_h = 1;
  g.pad_w = 1;
  g.validate();
  const std::int64_t batch = 5, cout = 4;
  const std::int64_t chw = g.channels * g.height * g.width;
  const std::int64_t ohw = g.out_h() * g.out_w();
  util::Rng rng(17);
  const Tensor x = spike_operand(Shape{batch, g.channels, g.height, g.width},
                                 0.3, rng);
  const Tensor w = Tensor::randn(Shape{cout, g.patch_size()}, rng);

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  std::vector<float> full(static_cast<std::size_t>(batch * ohw * cout));
  conv_events(g, x.data(), batch, w.data(), cout, full.data(), ws);

  std::vector<float> one(static_cast<std::size_t>(ohw * cout));
  for (std::int64_t i = 0; i < batch; ++i) {
    conv_events(g, x.data() + i * chw, 1, w.data(), cout, one.data(), ws);
    EXPECT_EQ(std::memcmp(one.data(), full.data() + i * ohw * cout,
                          one.size() * sizeof(float)),
              0)
        << "sample " << i << " differs between batched and single calls";
  }
}

TEST(Conv2dEvents, ForwardMatchesDenseKernel) {
  // The same layer weights through the dense im2col+GEMM path and the event
  // scatter path must agree (association tolerance only).
  const nn::Conv2dSpec spec{/*in_channels=*/2, /*out_channels=*/5,
                            /*kernel=*/5, /*stride=*/1, /*padding=*/2};
  util::Rng rng_a(23), rng_b(23), rng_x(29);
  nn::Conv2d dense(spec, rng_a);
  // same seed -> identical weights
  nn::Conv2d events(spec, rng_b, /*bias=*/true, nn::InputKind::kEvents);

  const Tensor x = spike_operand(Shape{4, 2, 14, 14}, 0.15, rng_x);
  const Tensor yd = dense.forward(x, nn::Mode::kEval);
  const Tensor ye = events.forward(x, nn::Mode::kEval);
  ASSERT_EQ(yd.shape(), ye.shape());
  for (std::int64_t i = 0; i < yd.numel(); ++i)
    ASSERT_NEAR(yd[i], ye[i], 1e-4f) << "flat index " << i;
}

TEST(Conv2dEvents, BatchedVsSingleBitIdentical) {
  const nn::Conv2dSpec spec{2, 3, 3, 1, 1};
  util::Rng rng(31);
  nn::Conv2d conv(spec, rng, /*bias=*/true, nn::InputKind::kEvents);
  const std::int64_t n = 4, chw = 2 * 10 * 10;
  const Tensor x = spike_operand(Shape{n, 2, 10, 10}, 0.2, rng);
  const Tensor yf = conv.forward(x, nn::Mode::kEval);
  const std::int64_t per = yf.numel() / n;
  Tensor xi(Shape{1, 2, 10, 10});
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(xi.data(), x.data() + i * chw,
                static_cast<std::size_t>(chw) * sizeof(float));
    const Tensor yi = conv.forward(xi, nn::Mode::kEval);
    ASSERT_EQ(yi.numel(), per);
    EXPECT_EQ(std::memcmp(yi.data(), yf.data() + i * per,
                          static_cast<std::size_t>(per) * sizeof(float)),
              0)
        << "sample " << i;
  }
}

TEST(Conv2dEvents, SteadyStateIsAllocationFree) {
  // After warm-up (workspace arenas grown, output tensor shaped), repeated
  // event-path forwards must not touch the heap. Counting operator-new hook
  // at the top of this file.
  const nn::Conv2dSpec spec{3, 8, 5, 1, 2};
  util::Rng rng(37);
  nn::Conv2d conv(spec, rng, /*bias=*/true, nn::InputKind::kEvents);
  const Tensor x = spike_operand(Shape{4, 3, 12, 12}, 0.2, rng);
  Tensor y;
  for (int i = 0; i < 3; ++i) conv.forward_into(x, y, nn::Mode::kEval);
  const std::int64_t before = g_allocs.load();
  for (int i = 0; i < 5; ++i) conv.forward_into(x, y, nn::Mode::kEval);
  EXPECT_EQ(g_allocs.load() - before, 0)
      << "event conv forward allocated on the steady state";
}

TEST(LinearEvents, SteadyStateIsAllocationFree) {
  util::Rng rng(41);
  nn::Linear fc(256, 64, rng, /*bias=*/true, nn::InputKind::kEvents);
  const Tensor x = spike_operand(Shape{16, 256}, 0.1, rng);
  Tensor y;
  for (int i = 0; i < 3; ++i) fc.forward_into(x, y);
  const std::int64_t before = g_allocs.load();
  for (int i = 0; i < 5; ++i) fc.forward_into(x, y);
  EXPECT_EQ(g_allocs.load() - before, 0)
      << "event linear forward allocated on the steady state";
}

}  // namespace
}  // namespace snnsec::tensor
