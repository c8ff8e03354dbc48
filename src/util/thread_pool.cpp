#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <iterator>

#include "util/error.hpp"
#include "util/metrics_hooks.hpp"

namespace snnsec::util {

namespace {
// Set inside pool workers so nested parallel_for calls degrade to serial
// execution instead of deadlocking (a worker must never block on the pool).
thread_local bool g_inside_pool_worker = false;

// Initial queue slots (a power of two). A fan-out queues at most one task per
// pool thread, so on common core counts this covers several concurrent
// fan-outs plus long-lived serve loops before the ring has to grow.
constexpr std::size_t kInitialRingSlots = 64;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  ring_.resize(kInitialRingSlots);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  Task entry;
  entry.fn = std::move(task);
  if (metrics::enabled())
    entry.enqueued = std::chrono::steady_clock::now();
  std::size_t depth;
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): queue handoff, O(1) critical section
    std::lock_guard lock(mutex_);
    SNNSEC_CHECK(!stop_, "submit() on stopped ThreadPool");
    push_locked(std::move(entry));
    ++in_flight_;
    depth = queued_;
  }
  metrics::counter_add("pool.tasks", 1);
  metrics::gauge_set("pool.queue_depth", static_cast<double>(depth));
  cv_task_.notify_one();
}

void ThreadPool::push_locked(Task&& task) {
  if (queued_ == ring_.size()) {
    // Full: unwrap so the queue starts at slot 0, then double the slots.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    // NOLINTNEXTLINE(snnsec-hot-path-alloc): ring doubles only when full; a warm pool never grows it
    ring_.resize(ring_.size() * 2);
  }
  ring_[(head_ + queued_) & (ring_.size() - 1)] = std::move(task);
  ++queued_;
}

ThreadPool::Task ThreadPool::pop_locked() {
  Task task = std::move(ring_[head_]);
  head_ = (head_ + 1) & (ring_.size() - 1);
  --queued_;
  return task;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  // Mark the thread once for its whole lifetime: it is always a pool worker,
  // so nested parallel_for calls degrade to serial, and a throwing task can
  // never leave the flag stale the way a set/clear pair around each task
  // could.
  g_inside_pool_worker = true;
  for (;;) {
    Task task;
    std::size_t depth;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (stop_ && queued_ == 0) return;
      task = pop_locked();
      depth = queued_;
    }
    metrics::gauge_set("pool.queue_depth", static_cast<double>(depth));
    if (task.enqueued != std::chrono::steady_clock::time_point{}) {
      const double wait_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count();
      static constexpr double kWaitBoundsMs[] = {0.01, 0.1, 1.0,
                                                 10.0, 100.0, 1000.0};
      metrics::histogram_observe("pool.task_wait_ms", wait_ms, kWaitBoundsMs,
                                 std::size(kWaitBoundsMs));
    }
    // in_flight_ must reach zero even when the task throws — otherwise
    // wait_idle() deadlocks — so the decrement is RAII, not a statement
    // after the call.
    struct InFlightGuard {
      ThreadPool& pool;
      ~InFlightGuard() {
        std::lock_guard lock(pool.mutex_);
        if (--pool.in_flight_ == 0) pool.cv_idle_.notify_all();
      }
    } guard{*this};
    try {
      task.fn();
    } catch (...) {
      // A raw submit() has no caller to deliver the exception to
      // (parallel_for catches and rethrows its own); letting it escape a
      // worker thread would std::terminate the process mid-sweep. Swallow
      // it, count the drop, keep the worker alive.
      metrics::counter_add("pool.task_exceptions", 1);
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SNNSEC_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 4 : hw);
  }());
  return pool;
}

bool inside_pool_worker() { return g_inside_pool_worker; }

namespace {
// Join state of one fan-out. It lives on the caller's stack: the caller
// blocks until every chunk has reported done, so chunk tasks need carry only
// a pointer to it and their chunk index — small enough for std::function's
// inline buffer, which keeps a warm fan-out off the heap.
struct FanOut {
  FanOut(detail::ChunkFn f, void* c, std::int64_t b, std::int64_t e,
         std::int64_t workers)
      : fn(f),
        ctx(c),
        begin(b),
        end(e),
        chunk((e - b + workers - 1) / workers) {}

  const detail::ChunkFn fn;
  void* const ctx;
  const std::int64_t begin;
  const std::int64_t end;
  const std::int64_t chunk;
  std::int64_t launched = 0;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::int64_t done = 0;  ///< guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done_cv;

  void run_chunk(std::int64_t index) {
    const std::int64_t lo = begin + index * chunk;
    const std::int64_t hi = std::min(end, lo + chunk);
    try {
      // NOLINTNEXTLINE(snnsec-relaxed-atomic): advisory probe, exchange is seq_cst
      if (!failed.load(std::memory_order_relaxed)) fn(ctx, lo, hi);
    } catch (...) {
      // NOLINTNEXTLINE(snnsec-hot-path-lock): first-error latch, exception path only
      std::lock_guard lock(error_mutex);
      if (!failed.exchange(true)) first_error = std::current_exception();
    }
    // Count and notify under the lock: the moment done reaches launched the
    // caller may return and destroy done_cv, so no chunk may touch it after
    // releasing done_mutex.
    // NOLINTNEXTLINE(snnsec-hot-path-lock): completion count, O(1) critical section
    std::lock_guard lock(done_mutex);
    ++done;
    done_cv.notify_one();
  }
};
}  // namespace

void detail::parallel_for_chunked_impl(std::int64_t begin, std::int64_t end,
                                       std::int64_t workers, ChunkFn fn,
                                       void* ctx) {
  FanOut fan(fn, ctx, begin, end, workers);
  ThreadPool& pool = ThreadPool::global();
  for (std::int64_t lo = begin; lo < end; lo += fan.chunk) {
    FanOut* state = &fan;
    const std::int64_t index = fan.launched++;
    pool.submit([state, index] { state->run_chunk(index); });
  }
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): join barrier, fan-out caller must block here
    std::unique_lock lock(fan.done_mutex);
    fan.done_cv.wait(lock, [&fan] { return fan.done == fan.launched; });
  }
  if (fan.failed.load()) std::rethrow_exception(fan.first_error);
}

}  // namespace snnsec::util
