// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "tensor/spike_events.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/checked.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::tensor {

namespace {

/// alpha/beta store of one finished C row. Cloned like the kernels that
/// call it, so beta*c + alpha*acc rounds the way it did inside them.
SNNSEC_KERNEL_CLONES
void store_row(std::int64_t n, float alpha, float beta, const float* acc,
               float* crow) {
  // NOLINTNEXTLINE(snnsec-float-eq): beta exactly 0 selects the overwrite path; near-zero must still scale C
  if (beta == 0.0f) {
    for (std::int64_t j = 0; j < n; ++j) crow[j] = alpha * acc[j];
  } else {
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] = beta * crow[j] + alpha * acc[j];
  }
}

/// One C row of the event kernel: accumulate value-scaled rows of op(B) =
/// B [k, n] (row p at b + p*ldb) for every event, four events per trip with
/// a fixed association order, then the alpha/beta store. The trip count and
/// association depend only on the row's own event count, never on
/// neighboring rows or the thread schedule — the bit-identity the
/// serial-vs-parallel tests pin down.
SNNSEC_KERNEL_CLONES
void event_accum_row(std::int64_t cnt, const std::int32_t* idx,
                     const float* val, const float* b, std::int64_t ldb,
                     std::int64_t n, float alpha, float beta, float* crow,
                     float* acc) {
  std::fill(acc, acc + n, 0.0f);
  std::int64_t e = 0;
  for (; e + 4 <= cnt; e += 4) {
    const float* b0 = b + static_cast<std::int64_t>(idx[e]) * ldb;
    const float* b1 = b + static_cast<std::int64_t>(idx[e + 1]) * ldb;
    const float* b2 = b + static_cast<std::int64_t>(idx[e + 2]) * ldb;
    const float* b3 = b + static_cast<std::int64_t>(idx[e + 3]) * ldb;
    const float v0 = val[e];
    const float v1 = val[e + 1];
    const float v2 = val[e + 2];
    const float v3 = val[e + 3];
    for (std::int64_t j = 0; j < n; ++j)
      acc[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
  }
  for (; e < cnt; ++e) {
    const float* brow = b + static_cast<std::int64_t>(idx[e]) * ldb;
    const float v = val[e];
    for (std::int64_t j = 0; j < n; ++j) acc[j] += v * brow[j];
  }
  store_row(n, alpha, beta, acc, crow);
}

/// event_accum_row for op(B) = W^T with W stored [n, k] (an event Linear's
/// [out, in] weight, row j at w + j*ldw): the same expression per output,
/// reading event p's weights down column p of W. Every acc[j] sees the same
/// operations in the same order as event_accum_row on a packed W^T, so the
/// two are bit-identical.
SNNSEC_KERNEL_CLONES
void event_accum_row_wt(std::int64_t cnt, const std::int32_t* idx,
                        const float* val, const float* w, std::int64_t ldw,
                        std::int64_t n, float alpha, float beta, float* crow,
                        float* acc) {
  std::fill(acc, acc + n, 0.0f);
  std::int64_t e = 0;
  for (; e + 4 <= cnt; e += 4) {
    const float* w0 = w + idx[e];
    const float* w1 = w + idx[e + 1];
    const float* w2 = w + idx[e + 2];
    const float* w3 = w + idx[e + 3];
    const float v0 = val[e];
    const float v1 = val[e + 1];
    const float v2 = val[e + 2];
    const float v3 = val[e + 3];
    for (std::int64_t j = 0; j < n; ++j)
      acc[j] += v0 * w0[j * ldw] + v1 * w1[j * ldw] + v2 * w2[j * ldw] +
                v3 * w3[j * ldw];
  }
  for (; e < cnt; ++e) {
    const float* wcol = w + idx[e];
    const float v = val[e];
    for (std::int64_t j = 0; j < n; ++j) acc[j] += v * wcol[j * ldw];
  }
  store_row(n, alpha, beta, acc, crow);
}

/// bt [k, n] = W^T for W [n, k] with leading dimension ldw, eight W rows
/// at a time so each pass over k writes whole bt cache lines.
void pack_transposed(const float* w, std::int64_t ldw, std::int64_t n,
                     std::int64_t k, float* bt) {
  constexpr std::int64_t kRows = 8;
  for (std::int64_t j0 = 0; j0 < n; j0 += kRows) {
    const std::int64_t j1 = std::min(n, j0 + kRows);
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = j0; j < j1; ++j) bt[p * n + j] = w[j * ldw + p];
  }
}

/// Scatter one sample's input events into its Ct panel. Per event: find the
/// [oy_min, oy_max] x [ox_min, ox_max] window rectangle it occupies, then
/// FMA the value-scaled W^T row of the corresponding patch position into
/// each window's output row. For a fixed output row the (ch, iy, ix) scan
/// order visits contributions in ascending (ch, kh, kw) — ascending patch
/// index — so per-element accumulation order is a pure function of the
/// sample's data and the geometry.
SNNSEC_KERNEL_CLONES
void conv_scatter_sample(const ConvGeometry& g, std::int64_t oh,
                         std::int64_t ow, const std::int32_t* cnt,
                         const std::int32_t* idx, const float* val,
                         const float* wt, std::int64_t cout, float* cti) {
  for (std::int64_t ch = 0; ch < g.channels; ++ch) {
    for (std::int64_t iy = 0; iy < g.height; ++iy) {
      const std::int64_t r = ch * g.height + iy;
      const std::int32_t rc = cnt[r];
      if (rc == 0) continue;
      const std::int32_t* rix = idx + r * g.width;
      const float* rv = val + r * g.width;
      const std::int64_t y = iy + g.pad_h;
      const std::int64_t oy_max = std::min(oh - 1, y / g.stride_h);
      const std::int64_t ya = y - g.kernel_h + 1;
      const std::int64_t oy_min =
          ya > 0 ? (ya + g.stride_h - 1) / g.stride_h : 0;
      for (std::int32_t e = 0; e < rc; ++e) {
        const std::int64_t x = rix[e] + g.pad_w;
        const std::int64_t ox_max = std::min(ow - 1, x / g.stride_w);
        const std::int64_t xa = x - g.kernel_w + 1;
        const std::int64_t ox_min =
            xa > 0 ? (xa + g.stride_w - 1) / g.stride_w : 0;
        const float v = rv[e];
        for (std::int64_t oy = oy_min; oy <= oy_max; ++oy) {
          const std::int64_t kh = y - oy * g.stride_h;
          const std::int64_t prow = (ch * g.kernel_h + kh) * g.kernel_w;
          float* crow0 = cti + oy * ow * cout;
          for (std::int64_t ox = ox_min; ox <= ox_max; ++ox) {
            const float* wrow = wt + (prow + (x - ox * g.stride_w)) * cout;
            float* crow = crow0 + ox * cout;
            for (std::int64_t j = 0; j < cout; ++j) crow[j] += v * wrow[j];
          }
        }
      }
    }
  }
}

}  // namespace

EventRows build_event_rows(const float* a, std::int64_t lda, std::int64_t rows,
                           std::int64_t cols, util::Workspace& ws) {
  SNNSEC_CHECK(rows >= 0 && cols >= 0 && lda >= cols,
               "build_event_rows: bad geometry rows=" << rows << " cols="
                                                      << cols << " lda="
                                                      << lda);
  SNNSEC_CHECK(cols <= std::numeric_limits<std::int32_t>::max(),
               "build_event_rows: cols " << cols << " overflows int32 index");
  EventRows ev;
  ev.rows = rows;
  ev.cols = cols;
  ev.stride = cols;
  std::int32_t* cnt = ws.alloc<std::int32_t>(static_cast<std::size_t>(rows));
  std::int32_t* idx =
      ws.alloc<std::int32_t>(static_cast<std::size_t>(rows * cols));
  float* val = ws.alloc<float>(static_cast<std::size_t>(rows * cols));
  auto build_rows = [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* arow = a + i * lda;
      std::int32_t* irow = idx + i * cols;
      float* vrow = val + i * cols;
      std::int32_t c = 0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float v = arow[j];
        // NOLINTNEXTLINE(snnsec-float-eq): spike operands are exactly 0 or 1; only true zeros may be dropped
        if (v == 0.0f) continue;
        irow[c] = static_cast<std::int32_t>(j);
        vrow[c] = v;
        ++c;
      }
      cnt[i] = c;
    }
  };
  if (rows * cols < (std::int64_t{1} << 16))
    build_rows(0, rows);
  else
    util::parallel_for_chunked(0, rows, build_rows);
  ev.count = cnt;
  ev.index = idx;
  ev.value = val;
  return ev;
}

void conv_events(const ConvGeometry& g, const float* images,
                 std::int64_t batch, const float* w, std::int64_t cout,
                 float* ct, util::Workspace& ws) {
  SNNSEC_CHECK(batch >= 0 && cout > 0,
               "conv_events: bad batch=" << batch << " cout=" << cout);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.events_path", 1);
  util::Workspace::Scope scope(ws);
  // Pack W^T [patch, cout] once so the scatter's inner FMA is unit-stride.
  float* wt = ws.alloc<float>(static_cast<std::size_t>(patch * cout));
  pack_transposed(w, patch, cout, patch, wt);
  // Scanline event lists for the whole batch: each input pixel read once.
  const EventRows in_ev = build_event_rows(
      images, g.width, batch * g.channels * g.height, g.width, ws);
  const std::int32_t* cnt = in_ev.count;
  const std::int32_t* idx = in_ev.index;
  const float* val = in_ev.value;
  const std::int64_t sample_rows = g.channels * g.height;
  util::parallel_for(0, batch, [=](std::int64_t i) {
    float* cti = ct + i * ohw * cout;
    std::fill(cti, cti + ohw * cout, 0.0f);
    conv_scatter_sample(g, oh, ow, cnt + i * sample_rows,
                        idx + i * sample_rows * g.width,
                        val + i * sample_rows * g.width, wt, cout, cti);
  });
}

void gemm_events(const EventRows& ev, Trans trans_b, std::int64_t n,
                 float alpha, const float* b, std::int64_t ldb, float beta,
                 float* c, std::int64_t ldc) {
  if (ev.rows <= 0 || n <= 0) return;
  SNNSEC_CHECK(ev.count != nullptr && ev.index != nullptr &&
                   ev.value != nullptr && ev.stride >= 0,
               "gemm_events: uninitialized EventRows");
  const std::int64_t k = ev.cols;
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.events_path", 1);
  const std::int32_t* cnt = ev.count;
  const std::int32_t* idx = ev.index;
  const float* val = ev.value;
  const std::int64_t stride = ev.stride;
  // op(B) = B is read in place. op(B) = W^T is read in place down W's
  // columns while the call has at most k events — each weight is then
  // touched about once, and a serving step's few rows skip the transpose
  // entirely. Past that (a whole-window or training batch) W^T is packed
  // once so every event streams a contiguous row. All three are
  // bit-identical: the per-output expression and its order never change.
  std::int64_t events = 0;
  if (trans_b == Trans::kYes)
    for (std::int64_t i = 0; i < ev.rows && events <= k; ++i) events += cnt[i];
  const bool in_place_wt = trans_b == Trans::kYes && events <= k;
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const float* bp = b;
  std::int64_t ldbp = ldb;
  if (trans_b == Trans::kYes && !in_place_wt) {
    float* bt = ws.alloc<float>(static_cast<std::size_t>(k * n));
    pack_transposed(b, ldb, n, k, bt);
    bp = bt;
    ldbp = n;
  }
  auto row_panel = [=](std::int64_t lo, std::int64_t hi) {
    util::Workspace& tws = util::Workspace::local();
    util::Workspace::Scope row_scope(tws);
    float* acc = tws.alloc<float>(static_cast<std::size_t>(n));
    for (std::int64_t i = lo; i < hi; ++i) {
      if (in_place_wt)
        event_accum_row_wt(cnt[i], idx + i * stride, val + i * stride, bp,
                           ldbp, n, alpha, beta, c + i * ldc, acc);
      else
        event_accum_row(cnt[i], idx + i * stride, val + i * stride, bp, ldbp,
                        n, alpha, beta, c + i * ldc, acc);
    }
  };
  // Same size threshold as the dense/sparse kernels — a shape property, not
  // a data property, so the schedule is deterministic per call site.
  if ((ev.rows * n * k) < (std::int64_t{1} << 16))
    row_panel(0, ev.rows);
  else
    util::parallel_for_chunked(0, ev.rows, row_panel);
}

}  // namespace snnsec::tensor
