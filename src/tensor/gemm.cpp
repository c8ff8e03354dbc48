// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/im2col.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::tensor {

namespace {

struct Dims {
  std::int64_t m = 0, n = 0, k = 0;
};

Dims check_dims(Trans trans_a, Trans trans_b, const Tensor& a,
                const Tensor& b) {
  SNNSEC_CHECK(a.ndim() == 2 && b.ndim() == 2,
               "gemm expects rank-2 operands, got " << a.shape().to_string()
                                                    << " and "
                                                    << b.shape().to_string());
  Dims d;
  const std::int64_t a_rows = a.dim(0), a_cols = a.dim(1);
  const std::int64_t b_rows = b.dim(0), b_cols = b.dim(1);
  d.m = (trans_a == Trans::kNo) ? a_rows : a_cols;
  d.k = (trans_a == Trans::kNo) ? a_cols : a_rows;
  const std::int64_t bk = (trans_b == Trans::kNo) ? b_rows : b_cols;
  d.n = (trans_b == Trans::kNo) ? b_cols : b_rows;
  SNNSEC_CHECK(d.k == bk, "gemm inner-dimension mismatch: "
                              << a.shape().to_string() << " x "
                              << b.shape().to_string());
  return d;
}

inline float load_a(Trans ta, const float* a, std::int64_t lda, std::int64_t i,
                    std::int64_t p) {
  return (ta == Trans::kNo) ? a[i * lda + p] : a[p * lda + i];
}

inline float load_b(Trans tb, const float* b, std::int64_t ldb, std::int64_t p,
                    std::int64_t j) {
  return (tb == Trans::kNo) ? b[p * ldb + j] : b[j * ldb + p];
}

// ---- blocked dense kernel --------------------------------------------------
//
// BLIS-style three-level blocking: C is computed in MC x NC tiles, each as a
// sum over KC slabs. Within a tile the work is an array of MR x NR register
// microkernels reading zero-padded pack buffers, so the innermost loops have
// no branches and fixed trip counts the compiler unrolls and vectorizes.
//
// MR*NR accumulators (4x8 = 8 SSE vectors) plus one B row and one A
// broadcast fit the x86-64 baseline register file without spilling.
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 8;
constexpr std::int64_t kMC = 128;  // A block rows   (multiple of MR)
constexpr std::int64_t kKC = 256;  // shared K slab
constexpr std::int64_t kNC = 512;  // B block cols   (multiple of NR)

inline std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

/// Pack op(A)[i0:i0+mb, p0:p0+kb] into MR-row panels, ap[panel][kk][r],
/// zero-padding the ragged last panel so microkernels never branch on m.
void pack_a_block(Trans ta, const float* a, std::int64_t lda, std::int64_t i0,
                  std::int64_t mb, std::int64_t p0, std::int64_t kb,
                  float* ap) {
  const std::int64_t panels = (mb + kMR - 1) / kMR;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    float* dst = ap + ip * kb * kMR;
    const std::int64_t rows = std::min(kMR, mb - ip * kMR);
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      for (std::int64_t r = 0; r < rows; ++r)
        dst[kk * kMR + r] = load_a(ta, a, lda, i0 + ip * kMR + r, p0 + kk);
      for (std::int64_t r = rows; r < kMR; ++r) dst[kk * kMR + r] = 0.0f;
    }
  }
}

/// Pack op(B)[p0:p0+kb, j0:j0+nb] into NR-column panels, bp[panel][kk][c],
/// zero-padded to a multiple of NR columns.
void pack_b_block(Trans tb, const float* b, std::int64_t ldb, std::int64_t p0,
                  std::int64_t kb, std::int64_t j0, std::int64_t nb,
                  float* bp) {
  const std::int64_t panels = (nb + kNR - 1) / kNR;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    float* dst = bp + jp * kb * kNR;
    const std::int64_t cols = std::min(kNR, nb - jp * kNR);
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      for (std::int64_t c = 0; c < cols; ++c)
        dst[kk * kNR + c] = load_b(tb, b, ldb, p0 + kk, j0 + jp * kNR + c);
      for (std::int64_t c = cols; c < kNR; ++c) dst[kk * kNR + c] = 0.0f;
    }
  }
}

/// Copy L consecutive source floats into each of kb packed rows: one run
/// of a panel, as a constant-size move per row.
template <std::int64_t L>
inline void copy_run(float* dst, const float* base, const std::int64_t* k_off,
                     std::int64_t kb) {
  for (std::int64_t kk = 0; kk < kb; ++kk)
    std::memcpy(dst + kk * kNR, base + k_off[kk], sizeof(float) * L);
}

/// Pack the panels of an operand whose element (p, j) lives at
/// src[k_off[p] + n_off[j]] into pack_b_block's layout: the implicit im2col
/// matrix, addressed through offset tables. Within a panel, columns whose
/// source addresses are consecutive form a run (a stride-1 output row, the
/// taps of one kernel row), copied 8, 4, 2 or 1 floats at a time; a
/// stride-2 row degrades to single-float gathers.
void pack_b_offsets(const float* src, const std::int64_t* k_off,
                    std::int64_t kb, const std::int64_t* n_off,
                    std::int64_t nb, float* bp) {
  const std::int64_t panels = (nb + kNR - 1) / kNR;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    float* dst = bp + jp * kb * kNR;
    const std::int64_t* off = n_off + jp * kNR;
    const std::int64_t cols = std::min(kNR, nb - jp * kNR);
    for (std::int64_t c0 = 0; c0 < cols;) {
      std::int64_t len = 1;
      while (c0 + len < cols && off[c0 + len] == off[c0] + len) ++len;
      const float* base = src + off[c0];
      if (len == kNR) {
        copy_run<kNR>(dst, base, k_off, kb);
      } else if (len >= 4) {
        copy_run<4>(dst + c0, base, k_off, kb);
        len = 4;
      } else if (len >= 2) {
        copy_run<2>(dst + c0, base, k_off, kb);
        len = 2;
      } else {
        copy_run<1>(dst + c0, base, k_off, kb);
      }
      c0 += len;
    }
    for (std::int64_t kk = 0; kk < kb; ++kk)
      for (std::int64_t c = cols; c < kNR; ++c) dst[kk * kNR + c] = 0.0f;
  }
}

// ---- implicit im2col -------------------------------------------------------
//
// The column matrix of a convolution is never built. Its element (row r,
// column q) is one float of the zero-padded input xp [N, C, Hp, Wp]:
//   r = (ch*KH + kh)*KW + kw   ->  tap offset   ch*Hp*Wp + kh*Wp + kw
//   q = (i*OH + oy)*OW + ox    ->  pixel offset i*C*Hp*Wp + oy*SH*Wp + ox*SW
// and the element sits at xp[tap + pixel]. Padding reads the +0.0f that
// im2col writes, so every packed panel holds exactly the floats the
// materialized lowering would have.

struct PaddedInput {
  const float* data;
  std::int64_t h, w;  ///< padded plane size
};

/// `x` with its zero border made explicit, in workspace memory (or `x`
/// itself when the convolution has no padding).
PaddedInput pad_input(const ConvGeometry& g, const float* x,
                      std::int64_t batch, util::Workspace& ws) {
  const std::int64_t hp = g.height + 2 * g.pad_h;
  const std::int64_t wp = g.width + 2 * g.pad_w;
  if (g.pad_h == 0 && g.pad_w == 0) return {x, hp, wp};
  float* xp =
      ws.alloc<float>(static_cast<std::size_t>(batch * g.channels * hp * wp));
  for (std::int64_t plane = 0; plane < batch * g.channels; ++plane) {
    const float* src = x + plane * g.height * g.width;
    float* dst = xp + plane * hp * wp;
    std::fill(dst, dst + g.pad_h * wp, 0.0f);
    for (std::int64_t y = 0; y < g.height; ++y) {
      float* row = dst + (g.pad_h + y) * wp;
      std::fill(row, row + g.pad_w, 0.0f);
      std::memcpy(row + g.pad_w, src + y * g.width, sizeof(float) * g.width);
      std::fill(row + g.pad_w + g.width, row + wp, 0.0f);
    }
    std::fill(dst + (g.pad_h + g.height) * wp, dst + hp * wp, 0.0f);
  }
  return {xp, hp, wp};
}

/// Tap offsets of column-matrix rows [r0, r0 + count).
void tap_offsets(const ConvGeometry& g, const PaddedInput& xp, std::int64_t r0,
                 std::int64_t count, std::int64_t* off) {
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  std::int64_t ch = r0 / taps;
  std::int64_t kh = (r0 % taps) / g.kernel_w;
  std::int64_t kw = r0 % g.kernel_w;
  for (std::int64_t t = 0; t < count; ++t) {
    off[t] = (ch * xp.h + kh) * xp.w + kw;
    if (++kw < g.kernel_w) continue;
    kw = 0;
    if (++kh < g.kernel_h) continue;
    kh = 0;
    ++ch;
  }
}

/// Pixel offsets of column-matrix columns [q0, q0 + count).
void pixel_offsets(const ConvGeometry& g, const PaddedInput& xp,
                   std::int64_t q0, std::int64_t count, std::int64_t* off) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t i = q0 / (oh * ow);
  std::int64_t oy = (q0 % (oh * ow)) / ow;
  std::int64_t ox = q0 % ow;
  for (std::int64_t t = 0; t < count; ++t) {
    off[t] = (i * g.channels * xp.h + oy * g.stride_h) * xp.w + ox * g.stride_w;
    if (++ox < ow) continue;
    ox = 0;
    if (++oy < oh) continue;
    oy = 0;
    ++i;
  }
}

/// MR x NR register tile over a kb-long A panel and kb B rows of NR floats,
/// row kk at bp + kk*ldb (kNR for a packed panel). The fixed trip counts let
/// the compiler keep all MR*NR accumulators in registers and emit wide FMAs
/// for the c loop.
inline void micro_kernel(std::int64_t kb, const float* ap, const float* bp,
                         std::int64_t ldb, float* acc) {
  float t[kMR * kNR] = {};
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * ldb;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (std::int64_t c = 0; c < kNR; ++c) t[r * kNR + c] += av * brow[c];
    }
  }
  for (std::int64_t i = 0; i < kMR * kNR; ++i) acc[i] = t[i];
}

/// Write the valid rows x cols corner of an accumulator tile into C with the
/// alpha/beta contract. beta_eff is 0 on the first K slab (overwrite,
/// ignoring whatever garbage C held), 1 on subsequent slabs (accumulate).
inline void store_tile(float* c, std::int64_t ldc, const float* acc,
                       std::int64_t rows, std::int64_t cols, float alpha,
                       float beta_eff) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNR;
    // NOLINTNEXTLINE(snnsec-float-eq): beta 0/1 select the exact overwrite/accumulate fast paths; near-zero must still scale
    if (beta_eff == 0.0f) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] = alpha * arow[j];
    // NOLINTNEXTLINE(snnsec-float-eq): beta exactly 1 selects the pure-accumulate fast path
    } else if (beta_eff == 1.0f) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += alpha * arow[j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j)
        crow[j] = beta_eff * crow[j] + alpha * arow[j];
    }
  }
}

/// All register-tile work for one packed (A block, B block) pair: the
/// jp x ip sweep of MR x NR microkernels plus the C stores.
SNNSEC_KERNEL_CLONES
void dense_tiles(std::int64_t kb, std::int64_t mb, std::int64_t nb,
                 std::int64_t nb_pad, const float* ap, const float* bp,
                 float* c, std::int64_t ldc, float alpha, float beta_eff) {
  const std::int64_t jps = nb_pad / kNR;
  const std::int64_t ips = (mb + kMR - 1) / kMR;
  for (std::int64_t jp = 0; jp < jps; ++jp) {
    for (std::int64_t ip = 0; ip < ips; ++ip) {
      float acc[kMR * kNR];
      micro_kernel(kb, ap + ip * kb * kMR, bp + jp * kb * kNR, kNR, acc);
      store_tile(c + ip * kMR * ldc + jp * kNR, ldc, acc,
                 std::min(kMR, mb - ip * kMR), std::min(kNR, nb - jp * kNR),
                 alpha, beta_eff);
    }
  }
}

/// The blocked dense driver. `pack_b(pc, kb, jc, nb, bp)` fills bp with
/// op(B)[pc:pc+kb, jc:jc+nb] in pack_b_block's panel layout; which source it
/// packs from (a stored matrix or a convolution input) is the only thing
/// the two entry points differ in, so both share every slab boundary and
/// every register tile.
template <class PackB>
void gemm_dense(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
                float alpha, const float* a, std::int64_t lda,
                const PackB& pack_b, float beta, float* c, std::int64_t ldc) {
  util::Workspace& ws = util::Workspace::local();
  const bool parallel = (m * n * k) >= (std::int64_t{1} << 16);
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nb = std::min(kNC, n - jc);
    const std::int64_t nb_pad = round_up(nb, kNR);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kb = std::min(kKC, k - pc);
      const float beta_eff = (pc == 0) ? beta : 1.0f;
      util::Workspace::Scope pack_scope(ws);
      float* bp = ws.alloc<float>(static_cast<std::size_t>(kb * nb_pad));
      pack_b(pc, kb, jc, nb, bp);

      const std::int64_t ic_blocks = (m + kMC - 1) / kMC;
      auto run_blocks = [&](std::int64_t blo, std::int64_t bhi) {
        // Workers pack A into their own thread's arena; bp is read-only
        // shared state owned by the caller's scope.
        util::Workspace& tws = util::Workspace::local();
        util::Workspace::Scope tile_scope(tws);
        float* ap = tws.alloc<float>(static_cast<std::size_t>(kb * kMC));
        for (std::int64_t bi = blo; bi < bhi; ++bi) {
          const std::int64_t ic = bi * kMC;
          const std::int64_t mb = std::min(kMC, m - ic);
          pack_a_block(ta, a, lda, ic, mb, pc, kb, ap);
          dense_tiles(kb, mb, nb, nb_pad, ap, bp, c + ic * ldc + jc, ldc,
                      alpha, beta_eff);
        }
      };
      if (!parallel || ic_blocks == 1)
        run_blocks(0, ic_blocks);
      else
        util::parallel_for_chunked(0, ic_blocks, run_blocks);
    }
  }
}

// ---- convolution input gradient --------------------------------------------
//
// dx = col2im(Wᵀ·G) without the [patch, N·OHW] column matrix. Per sample the
// kernel fills a zero-padded copy of the image gradient, [C, Hp, Wp]. For
// each group of kMR consecutive column-matrix rows (taps), register tiles
// over the flattened output plane compute
//   t[row][q] = Σ_o W[o, row] · G[o, q]
// — micro_kernel over the A panel gemm_raw would pack from Wᵀ, reading the
// sample's G in place — and each row of t is then added into its channel's
// plane at offset kh*Wp + kw, row stride SH*Wp, column stride SW, rows
// ascending. Finally the interior of each padded plane is copied out to dx.
//
// Bit-identity with Wᵀ·G through gemm_raw followed by col2im: every t
// element is micro_kernel's chain (o ascending from +0.0f, one KC slab at a
// time, later slabs added to the first), and every dx element receives its
// taps' contributions in ascending row order starting from +0.0f, which is
// col2im's order. Contributions that land in the padding are dropped.

/// One sample's dx: `ap` holds Wᵀ's MR-row A panels ([cout][kMR] each), `gs`
/// the sample's G [cout, OHW]; `tail` has room for cout x kNR floats, `t`
/// for kMR rows of OHW rounded up to kNR, `padded` for C x Hp x Wp.
SNNSEC_KERNEL_CLONES
void conv_dx_sample(const ConvGeometry& g, std::int64_t cout, const float* ap,
                    const float* gs, float* dxs, float* tail, float* t,
                    float* padded) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t ohw_full = ohw / kNR * kNR;
  const std::int64_t ohw_pad = round_up(ohw, kNR);
  const std::int64_t hp = g.height + 2 * g.pad_h;
  const std::int64_t wp = g.width + 2 * g.pad_w;
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t patch = g.patch_size();
  // The ragged last pixel tile reads a zero-padded copy of G's tail columns,
  // so every tile runs the same fixed-width micro_kernel.
  if (ohw_full < ohw) {
    for (std::int64_t o = 0; o < cout; ++o) {
      float* dst = tail + o * kNR;
      std::copy(gs + o * ohw + ohw_full, gs + (o + 1) * ohw, dst);
      std::fill(dst + (ohw - ohw_full), dst + kNR, 0.0f);
    }
  }
  std::fill(padded, padded + g.channels * hp * wp, 0.0f);
  for (std::int64_t r0 = 0; r0 < patch; r0 += kMR) {
    const float* apr = ap + r0 * cout;
    for (std::int64_t q0 = 0; q0 < ohw_pad; q0 += kNR) {
      const bool full = q0 < ohw_full;
      const float* bq = full ? gs + q0 : tail;
      const std::int64_t ldb = full ? ohw : kNR;
      for (std::int64_t pc = 0; pc < cout; pc += kKC) {
        float acc[kMR * kNR];
        micro_kernel(std::min(kKC, cout - pc), apr + pc * kMR, bq + pc * ldb,
                     ldb, acc);
        for (std::int64_t r = 0; r < kMR; ++r) {
          float* trow = t + r * ohw_pad + q0;
          const float* arow = acc + r * kNR;
          if (pc == 0) {
            for (std::int64_t j = 0; j < kNR; ++j) trow[j] = arow[j];
          } else {
            for (std::int64_t j = 0; j < kNR; ++j) trow[j] += arow[j];
          }
        }
      }
    }
    for (std::int64_t row = r0; row < std::min(r0 + kMR, patch); ++row) {
      const std::int64_t tap = row % taps;
      float* base = padded + (row / taps) * hp * wp +
                    (tap / g.kernel_w) * wp + tap % g.kernel_w;
      const float* trow = t + (row - r0) * ohw_pad;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        float* dst = base + oy * g.stride_h * wp;
        const float* src = trow + oy * ow;
        for (std::int64_t ox = 0; ox < ow; ++ox)
          dst[ox * g.stride_w] += src[ox];
      }
    }
  }
  for (std::int64_t c = 0; c < g.channels; ++c)
    for (std::int64_t y = 0; y < g.height; ++y)
      std::memcpy(dxs + (c * g.height + y) * g.width,
                  padded + (c * hp + g.pad_h + y) * wp + g.pad_w,
                  sizeof(float) * g.width);
}

}  // namespace

void gemm_raw(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c,
              std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.flops", 2 * m * n * k);
  const auto pack_b = [&](std::int64_t p0, std::int64_t kb, std::int64_t j0,
                          std::int64_t nb, float* bp) {
    pack_b_block(trans_b, b, ldb, p0, kb, j0, nb, bp);
  };
  gemm_dense(trans_a, m, n, k, alpha, a, lda, pack_b, beta, c, ldc);
}

void gemm_conv_raw(Trans trans_a, Trans trans_b, std::int64_t m, float alpha,
                   const float* a, std::int64_t lda, const ConvGeometry& g,
                   const float* x, std::int64_t batch, float beta, float* c,
                   std::int64_t ldc) {
  const bool columns = trans_b == Trans::kNo;
  const std::int64_t patch = g.patch_size();
  const std::int64_t pixels = batch * g.out_h() * g.out_w();
  const std::int64_t n = columns ? pixels : patch;
  const std::int64_t k = columns ? patch : pixels;
  if (m <= 0 || n <= 0) return;
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.flops", 2 * m * n * k);
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const PaddedInput xp = pad_input(g, x, batch, ws);
  // Runs inside gemm_dense's pack scope, so the tables die with the panel.
  const auto pack_b = [&](std::int64_t p0, std::int64_t kb, std::int64_t j0,
                          std::int64_t nb, float* bp) {
    std::int64_t* k_off = ws.alloc<std::int64_t>(static_cast<std::size_t>(kb));
    std::int64_t* n_off = ws.alloc<std::int64_t>(static_cast<std::size_t>(nb));
    if (columns) {
      tap_offsets(g, xp, p0, kb, k_off);
      pixel_offsets(g, xp, j0, nb, n_off);
    } else {
      pixel_offsets(g, xp, p0, kb, k_off);
      tap_offsets(g, xp, j0, nb, n_off);
    }
    pack_b_offsets(xp.data, k_off, kb, n_off, nb, bp);
  };
  gemm_dense(trans_a, m, n, k, alpha, a, lda, pack_b, beta, c, ldc);
}

void conv_input_grad(const ConvGeometry& g, const float* w, std::int64_t cout,
                     const float* grad, std::int64_t batch, float* dx) {
  if (batch <= 0) return;
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  // Counted as the Wᵀ G GEMM it replaces: [patch, cout] x [cout, pixels].
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.flops", 2 * cout * patch * batch * ohw);
  const std::int64_t image = g.channels * g.height * g.width;
  const std::int64_t padded =
      g.channels * (g.height + 2 * g.pad_h) * (g.width + 2 * g.pad_w);
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  // Wᵀ packed as gemm_raw packs op(A): zero-padded MR-row panels, K = cout.
  float* ap =
      ws.alloc<float>(static_cast<std::size_t>(round_up(patch, kMR) * cout));
  pack_a_block(Trans::kYes, w, patch, 0, patch, 0, cout, ap);
  util::parallel_for_chunked(0, batch, [&](std::int64_t lo, std::int64_t hi) {
    util::Workspace& tws = util::Workspace::local();
    util::Workspace::Scope sample_scope(tws);
    float* tail = tws.alloc<float>(static_cast<std::size_t>(cout * kNR));
    float* t =
        tws.alloc<float>(static_cast<std::size_t>(kMR * round_up(ohw, kNR)));
    float* pad = tws.alloc<float>(static_cast<std::size_t>(padded));
    for (std::int64_t i = lo; i < hi; ++i)
      conv_dx_sample(g, cout, ap, grad + i * cout * ohw, dx + i * image, tail,
                     t, pad);
  });
}

// SNNSEC_HOT entry: every conv/fc lowers onto this call.
void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  SNNSEC_TRACE_SCOPE("gemm");
  const Dims d = check_dims(trans_a, trans_b, a, b);
  SNNSEC_CHECK(c.ndim() == 2 && c.dim(0) == d.m && c.dim(1) == d.n,
               "gemm output shape " << c.shape().to_string() << " != ["
                                    << d.m << ", " << d.n << "]");
  gemm_raw(trans_a, trans_b, d.m, d.n, d.k, alpha, a.data(), a.dim(1),
           b.data(), b.dim(1), beta, c.data(), d.n);
}

Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a, Trans trans_b) {
  const Dims d = check_dims(trans_a, trans_b, a, b);
  Tensor c(Shape{d.m, d.n});
  gemm(trans_a, trans_b, 1.0f, a, b, 0.0f, c);
  return c;
}

// ---- frozen seed kernel ----------------------------------------------------

void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c) {
  const Dims d = check_dims(trans_a, trans_b, a, b);
  SNNSEC_CHECK(c.ndim() == 2 && c.dim(0) == d.m && c.dim(1) == d.n,
               "gemm_reference output shape " << c.shape().to_string()
                                              << " != [" << d.m << ", " << d.n
                                              << "]");
  // Seed implementation, serial, per-call scratch — kept bit-exact on
  // purpose; see the header note.
  std::vector<float> bp(static_cast<std::size_t>(d.k * d.n));
  {
    const float* pb = b.data();
    if (trans_b == Trans::kNo) {
      std::copy(pb, pb + d.k * d.n, bp.begin());
    } else {
      const std::int64_t ldb = b.dim(1);
      for (std::int64_t j = 0; j < d.n; ++j)
        for (std::int64_t kk = 0; kk < d.k; ++kk)
          bp[static_cast<std::size_t>(kk * d.n + j)] = pb[j * ldb + kk];
    }
  }
  const float* pb = bp.data();
  const float* pa = a.data();
  float* pc = c.data();
  const std::int64_t lda = a.dim(1);
  std::vector<float> acc(static_cast<std::size_t>(d.n));
  for (std::int64_t i = 0; i < d.m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::int64_t kk = 0; kk < d.k; ++kk) {
      const float av =
          (trans_a == Trans::kNo) ? pa[i * lda + kk] : pa[kk * lda + i];
      // NOLINTNEXTLINE(snnsec-float-eq): spike operands are exactly 0 or 1; the sparsity skip must only drop true zeros
      if (av == 0.0f) continue;
      const float* brow = pb + kk * d.n;
      for (std::int64_t j = 0; j < d.n; ++j)
        acc[static_cast<std::size_t>(j)] += av * brow[j];
    }
    float* crow = pc + i * d.n;
    // NOLINTNEXTLINE(snnsec-float-eq): beta exactly 0 selects the overwrite path; near-zero must still scale C
    if (beta == 0.0f) {
      for (std::int64_t j = 0; j < d.n; ++j)
        crow[j] = alpha * acc[static_cast<std::size_t>(j)];
    } else {
      for (std::int64_t j = 0; j < d.n; ++j)
        crow[j] = beta * crow[j] + alpha * acc[static_cast<std::size_t>(j)];
    }
  }
}

}  // namespace snnsec::tensor
