// MicroBatcher: bounded admission queue + dynamic micro-batch former.
//
// The batcher owns no request payloads — it hands out slot indices into a
// fixed ring of `capacity` slots (the Server keeps the actual tensors in a
// parallel array) and tracks which slots are pending, in FIFO order.
//
// Lifecycle of a slot:
//   producer: try_acquire() -> fill payload -> enqueue()
//   consumer: next_batch()  -> execute -> deliver result
//   producer: release()     (after reading the delivered result)
//
// Admission control is the free list: when all `capacity` slots are
// outstanding, try_acquire() returns -1 and the caller sheds the request
// (503-style Rejected) instead of buffering unboundedly.
//
// Batch formation (next_batch) blocks until either `max_batch` requests are
// pending (flush on size) or the oldest pending request has waited
// `max_delay_us` (flush on delay), then pops up to max_batch slots in FIFO
// order. Multiple consumers may pull concurrently; each batch is a
// contiguous FIFO segment. After stop(), pending requests drain and then
// next_batch returns 0.
//
// Everything is preallocated in the constructor: the steady-state
// acquire/enqueue/pop/release path performs no heap allocation.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace snnsec::serve {

struct BatcherConfig {
  std::int64_t max_batch = 8;      ///< flush when this many are pending
  std::int64_t max_delay_us = 1000;  ///< flush when the oldest waits this long
  std::int64_t capacity = 64;      ///< bound on outstanding requests
  void validate() const;
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherConfig cfg);

  /// Reserve a slot. Returns the slot index, or -1 when the queue is at
  /// capacity or the batcher is stopped (caller sheds the request).
  std::int64_t try_acquire();

  /// Hand a filled slot to the consumers; FIFO position is assigned by the
  /// order of enqueue() calls (mutex-serialized).
  void enqueue(std::int64_t slot);

  /// Block until a batch is ready, pop up to max_batch slot indices in FIFO
  /// order into `out` (must hold >= max_batch entries). Returns the batch
  /// size, or 0 once stopped and drained.
  std::int64_t next_batch(std::int64_t* out);

  /// Return a slot to the free list (producer side, after the result has
  /// been read out).
  void release(std::int64_t slot);

  /// Stop admitting (try_acquire returns -1); pending requests still drain
  /// through next_batch, which then returns 0.
  void stop();
  bool stopped() const;

  /// Pending (enqueued, not yet popped) request count.
  std::int64_t depth() const;

  std::int64_t capacity() const { return cfg_.capacity; }
  const BatcherConfig& config() const { return cfg_; }

 private:
  BatcherConfig cfg_;
  mutable std::mutex m_;
  std::condition_variable cv_ready_;
  std::vector<std::int64_t> fifo_;  ///< ring buffer of pending slots
  std::int64_t head_ = 0;
  std::int64_t count_ = 0;
  std::vector<std::int64_t> free_;  ///< stack of unreserved slots
  std::int64_t free_top_;
  /// Enqueue timestamp per slot (valid between enqueue and pop) — drives
  /// the flush-on-delay deadline for the oldest pending request.
  std::vector<std::chrono::steady_clock::time_point> enq_time_;
  bool stopped_ = false;
};

}  // namespace snnsec::serve
