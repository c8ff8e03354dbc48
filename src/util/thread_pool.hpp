// Minimal work-stealing-free thread pool with a blocking parallel_for.
//
// The library's hot loops (GEMM row blocks, event-kernel rows, per-sample
// conv work, LIF chunks) are embarrassingly parallel, so a simple
// static-partition parallel_for over a shared pool is enough. Coarser units
// do not use it: core::Explorer runs its grid cells one after another. The
// pool is a process-wide singleton sized from the hardware, overridable via
// the SNNSEC_THREADS environment variable (SNNSEC_THREADS=1 gives fully
// deterministic serial execution regardless of reduction order).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace snnsec::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the pool runs it as soon as a worker is free.
  void submit(std::function<void()> task);

  /// Block until every submitted task has completed.
  void wait_idle();

  /// Process-wide pool (lazily constructed; size from SNNSEC_THREADS or
  /// hardware_concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  /// Queued task plus its enqueue time (only stamped while the metrics
  /// registry is enabled; a default time_point means "not measured").
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// FIFO task queue: a ring over preallocated slots that doubles only when
  /// full, so a warm pool enqueues and dequeues without touching the heap
  /// (a std::deque frees and reallocates a block every few tasks). Both
  /// members run under mutex_.
  void push_locked(Task&& task);
  Task pop_locked();

  std::vector<std::thread> workers_;
  std::vector<Task> ring_;  ///< size is a power of two
  std::size_t head_ = 0;    ///< slot of the oldest queued task
  std::size_t queued_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// True on a thread owned by the global pool. Nested parallel_for calls on
/// such threads run serially — a worker must never block on its own pool.
bool inside_pool_worker();

namespace detail {
/// Non-owning kernel handle: calls the caller's functor at ctx on [lo, hi).
using ChunkFn = void (*)(void* ctx, std::int64_t lo, std::int64_t hi);

/// Out-of-line fan-out/join core; only reached when the work will actually
/// be dispatched to the pool.
void parallel_for_chunked_impl(std::int64_t begin, std::int64_t end,
                               std::int64_t workers, ChunkFn fn, void* ctx);
}  // namespace detail

/// Hand contiguous [lo, hi) chunks of [begin, end) to the global pool and
/// block until all finish. Exceptions thrown by fn are rethrown on the
/// caller (first one wins). Serial — calling fn directly — when the range is
/// empty, the pool has one thread, or the caller is itself a pool worker.
/// The fan-out never type-erases fn: workers call a copy of it on the
/// caller's stack through a function pointer while the caller blocks, and
/// the per-call join state lives on that stack too. A warm call therefore
/// allocates nothing at any pool size (the queue only grows past its
/// preallocated ring when more tasks are pending at once than ever before).
template <typename Fn>
void parallel_for_chunked(std::int64_t begin, std::int64_t end, Fn&& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (inside_pool_worker()) {  // nested parallelism runs serially
    fn(begin, end);
    return;
  }
  const std::int64_t workers = std::min<std::int64_t>(
      static_cast<std::int64_t>(ThreadPool::global().size()), n);
  if (workers <= 1) {
    fn(begin, end);
    return;
  }
  // Workers call a copy on this frame: handing out fn's own address lets it
  // escape, which measurably slows the inlined serial path above.
  using F = std::decay_t<Fn>;
  F local = fn;
  detail::parallel_for_chunked_impl(
      begin, end, workers,
      [](void* ctx, std::int64_t lo, std::int64_t hi) {
        (*static_cast<F*>(ctx))(lo, hi);
      },
      &local);
}

/// Run fn(i) for i in [begin, end) across the global pool. Same serial
/// fast-path and exception contract as parallel_for_chunked.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, Fn&& fn,
                  std::int64_t grain = 1) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (n <= grain || inside_pool_worker() || ThreadPool::global().size() <= 1) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  parallel_for_chunked(begin, end, [&fn](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace snnsec::util
