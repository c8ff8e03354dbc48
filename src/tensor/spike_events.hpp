// Event-driven spike kernels: compressed per-row index lists + the
// event-accumulate GEMM that consumes them.
//
// Spike tensors are mostly zeros (obs probes show 5–20% firing rates), so a
// GEMM whose A operand is a spike slab wastes 80–95% of its work touching
// zeros. Here the operand is compressed ONCE into per-row event lists
// (column index + value per non-zero), and the kernel streams rows of the
// packed B operand only for firing indices. These are the only sparse
// kernels: a layer built with InputKind::kEvents runs them, every other
// GEMM runs the dense kernel of gemm.hpp.
//
// Representation (EventRows): per-row counts over a fixed-capacity layout —
// row i's events occupy index/value[i*stride .. i*stride + count[i]). The
// fixed stride makes the build single-pass and embarrassingly parallel (no
// prefix sum), and capacity is bump-arena virtual memory: untouched tail
// pages of a mostly-silent slab never cost RSS.
//
// Determinism contract: events are emitted in strictly increasing column
// order, the accumulate kernel processes them in that order with a fixed
// 4-way association, and every row of C is computed independently — so
// results are bit-identical across batch sizes, call counts, and thread
// counts. This is what lets a layer fix the event kernel at construction
// and rely on batched-vs-single and serial-vs-parallel bit-identity
// (DESIGN.md §14).
//
// All scratch and the event lists themselves live in util::Workspace arenas;
// steady-state calls perform zero heap allocations.
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace snnsec::util {
class Workspace;
}

namespace snnsec::tensor {

/// Compressed view of a sparse [rows, cols] operand. Row i's events live at
/// index/value[i*stride .. i*stride + count[i]), in increasing column order.
/// The arrays are borrowed (typically workspace memory) — an EventRows is
/// only valid while the arena scope it was built under is alive.
struct EventRows {
  const std::int32_t* count = nullptr;  ///< [rows] events per row
  const std::int32_t* index = nullptr;  ///< column index per event
  const float* value = nullptr;         ///< operand value per event
  std::int64_t rows = 0;
  std::int64_t cols = 0;    ///< logical width (the GEMM K dimension)
  std::int64_t stride = 0;  ///< capacity per row in index/value
};

/// Compress a row-major matrix [rows, cols] (leading dimension lda >= cols)
/// into event lists allocated from `ws`. Scans each row left-to-right, so
/// event order is increasing column index; rows build independently (and in
/// parallel for large operands) with bit-identical results either way.
EventRows build_event_rows(const float* a, std::int64_t lda, std::int64_t rows,
                           std::int64_t cols, util::Workspace& ws);

/// Event-driven conv forward, scatter formulation:
///   Ct [batch*OH*OW, cout] (row-major, leading dimension cout) with
///   Ct[(i*OH*OW + oy*OW + ox), :] = sum over patch events of v * W^T[p, :]
/// computed by walking the INPUT events once — each nonzero input pixel
/// accumulates its value-scaled weight row into every receptive-field
/// window it occupies — instead of materializing per-patch lists. Work and
/// memory traffic scale with input events x KH*KW x cout; silent scanlines
/// cost one count load. `w` is the [cout, patch] GEMM-ready weight matrix
/// (packed transposed internally). Result equals gemm_events over the
/// event lists of the im2row matrix [batch*OH*OW, patch] (the test
/// reference, which materializes those per-patch lists) with Trans::kYes,
/// up to summation association (each output element still accumulates in
/// ascending patch order, but one event at a time rather than four-way
/// grouped).
///
/// Determinism: samples are independent (parallelism is over the batch
/// only) and events within a sample apply in (c, iy, ix) scan order, so
/// results are bit-identical across batch sizes, call counts, and thread
/// counts.
void conv_events(const ConvGeometry& g, const float* images,
                 std::int64_t batch, const float* w, std::int64_t cout,
                 float* ct, util::Workspace& ws);

/// C = alpha * E * op(B) + beta * C, where E is the [rows, cols] operand
/// described by `ev` and op(B) is [cols, n]. Same stride semantics as
/// gemm_raw: op(B)[p,j] lives at b[p*ldb + j] (kNo) or b[j*ldb + p] (kYes);
/// C row i starts at c[i*ldc]. Rows are computed independently — serial and
/// parallel execution are bit-identical. kYes reads b in place while the
/// call has at most `cols` events and packs it transposed beyond that; the
/// two give identical bits, equal to kNo on the transposed matrix.
void gemm_events(const EventRows& ev, Trans trans_b, std::int64_t n,
                 float alpha, const float* b, std::int64_t ldb, float beta,
                 float* c, std::int64_t ldc);

}  // namespace snnsec::tensor
