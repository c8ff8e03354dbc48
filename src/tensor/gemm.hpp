// Single-precision GEMM: the workhorse behind Linear and (via an implicit
// im2col) Conv2d, forward and backward.
//
// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}.
//
// The entry points below run one kernel: a cache-blocked (MC/KC/NC),
// register-tiled (MR x NR) dense kernel whose inner loop is branch-free and
// written to auto-vectorize. Spike operands take the event kernels instead
// (gemm_events / conv_events, spike_events.hpp); a layer picks dense or
// events from its operand's ROLE when it is constructed, never from the
// operand's data, so batched and single execution of the same layer run
// the same kernel (DESIGN.md §14).
//
// All scratch (pack buffers, accumulators) comes from the per-thread
// util::Workspace arena: steady-state calls perform zero heap allocations.
// The seed scalar kernel survives verbatim as gemm_reference(), the numerics
// baseline the property tests and bench_runner compare against.
//
// Parallelized over row blocks of C through util::parallel_for_chunked; with
// SNNSEC_THREADS=1 every path is fully deterministic.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace snnsec::tensor {

enum class Trans { kNo, kYes };

struct ConvGeometry;  // tensor/im2col.hpp

/// General matrix multiply into an existing, correctly-sized C.
/// Shapes (logical, after op): A is [M,K], B is [K,N], C is [M,N].
void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c);

/// Convenience: returns op(A)*op(B) as a fresh [M,N] tensor.
Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

/// Raw-pointer core for callers that manage their own buffers (the conv
/// hot path runs GEMM straight on workspace memory). Strides are row-major
/// leading dimensions of the *stored* matrices: op(A)[i,p] lives at
/// a[i*lda + p] (kNo) or a[p*lda + i] (kYes), likewise for B; C is always
/// untransposed with stride ldc.
void gemm_raw(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c,
              std::int64_t ldc);

/// Implicit-im2col GEMM for convolution. The B operand is the
/// [patch_size, batch*OH*OW] column matrix of the `batch` NCHW images at
/// `x` under geometry `g` — but it is never materialized: each GEMM panel
/// is packed straight from the (zero-padded) input. Results are
/// bit-identical to building that matrix with im2col and calling gemm_raw
/// on it, because the packed panels hold the same floats.
///   trans_b = kNo  : C[m, batch*OHW] = alpha * op(A)[m, patch] * cols
///   trans_b = kYes : C[m, patch]     = alpha * op(A)[m, batch*OHW] * colsᵀ
/// each plus beta * C. A and C follow gemm_raw's conventions.
void gemm_conv_raw(Trans trans_a, Trans trans_b, std::int64_t m, float alpha,
                   const float* a, std::int64_t lda, const ConvGeometry& g,
                   const float* x, std::int64_t batch, float beta, float* c,
                   std::int64_t ldc);

/// Input gradient of a convolution: dx [batch, C, H, W] from the upstream
/// gradient `grad` [batch, cout, OH, OW] and the [cout, patch] weight
/// matrix `w`, overwriting dx. Computed per sample straight into the image
/// (register tiles over the output plane, taps added into a padded plane)
/// with no [patch, batch*OH*OW] column matrix, yet bit-identical to
/// gemm_raw(kYes, kNo) of w and grad's [cout, batch*OH*OW] reorder followed
/// by the col2im scatter-add into a zeroed dx: the same fma chain per
/// column-matrix element and the same tap-ascending add order per dx
/// element. Parallel over samples.
void conv_input_grad(const ConvGeometry& g, const float* w, std::int64_t cout,
                     const float* grad, std::int64_t batch, float* dx);

/// The seed scalar kernel, frozen: serial row-panel loop with the
/// per-element zero-skip and per-call heap scratch. Not for production use —
/// it exists so tests can pin the blocked kernel's numerics to the exact
/// code the repo grew up on, and so bench_runner can report speedup against
/// a stable baseline.
void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c);

}  // namespace snnsec::tensor
