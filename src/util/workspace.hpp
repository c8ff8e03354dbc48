// Workspace: a per-thread, grow-only bump arena for hot-path scratch.
//
// The compute kernels (GEMM pack buffers, padded conv inputs, LIF state
// vectors) need large scratch arrays on every call. Allocating them from the
// heap each time costs a malloc/free pair per op — measurable at attack-sweep
// scale where a single PGD run is millions of kernel invocations. The
// Workspace amortizes that to zero: each thread owns an arena of stable
// blocks that only ever grows; once the high-water mark is reached no further
// heap traffic happens.
//
// Usage pattern (top-level op):
//
//   util::Workspace& ws = util::Workspace::local();
//   util::Workspace::Scope scope(ws);              // RAII rewind
//   float* pack = ws.alloc<float>(kc * nc);
//   ... use pack; nested ops may open their own scopes ...
//   // scope destructor rewinds the arena to its entry mark
//
// Guarantees:
//  * Pointers returned by alloc() stay valid until the enclosing Scope (or an
//    explicit rewind past their mark) releases them — growth appends new
//    blocks, it never moves old ones.
//  * alloc() zero-fills nothing; callers own initialization.
//  * Each thread sees its own arena (thread_local singleton), so pool workers
//    allocating scratch inside parallel_for bodies never contend or alias.
//  * Grow-only: rewinding keeps capacity, so steady-state ops allocate from
//    warm memory. block_allocations() exposes the heap-allocation count for
//    the zero-alloc assertions in bench_runner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace snnsec::util {

class Workspace {
 public:
  Workspace() = default;

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// This thread's arena (lazily constructed, lives for the thread).
  static Workspace& local();

  /// Raw aligned allocation. Alignment must be a power of two; 64 bytes
  /// (a cache line) is enough for any SIMD width we generate.
  void* allocate(std::size_t bytes, std::size_t align = 64);

  /// Typed convenience: `n` default-constructible elements, uninitialized.
  template <typename T>
  T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Workspace only holds trivially destructible scratch");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T) < 64 ? 64 : alignof(T)));
  }

  /// Opaque position cookie for rewind(). Monotonic within one arena.
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };

  Mark mark() const { return Mark{active_, offset_}; }

  /// Release everything allocated after `m`. Capacity is retained.
  void rewind(Mark m);

  /// Release everything. Capacity is retained.
  void reset() { rewind(Mark{}); }

  /// RAII scope: rewinds to the construction-time mark on destruction.
  /// Scopes nest; inner scopes must be destroyed before outer ones (normal
  /// stack discipline gives this for free).
  class Scope {
   public:
    explicit Scope(Workspace& ws) : ws_(ws), mark_(ws.mark()) {}
    ~Scope() { ws_.rewind(mark_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    Mark mark_;
  };

  /// Total bytes of capacity across all blocks (diagnostics).
  std::size_t capacity() const;

  /// Number of heap block allocations made so far. Stable once the arena is
  /// warm — bench_runner asserts this stops moving in steady state.
  std::size_t block_allocations() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// First block is 1 MiB; each subsequent block doubles (capped at 64 MiB)
  /// so a handful of blocks covers any realistic scratch footprint.
  static constexpr std::size_t kMinBlock = std::size_t{1} << 20;
  static constexpr std::size_t kMaxBlock = std::size_t{1} << 26;

  void add_block(std::size_t at_least);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< index of the block we bump-allocate from
  std::size_t offset_ = 0;  ///< bump offset within blocks_[active_]
};

}  // namespace snnsec::util
