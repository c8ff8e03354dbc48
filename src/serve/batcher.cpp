// SNNSEC_HOT: per-request admission/batching path — steady state must not
// allocate.
#include "serve/batcher.hpp"

#include <algorithm>

#include "util/checked.hpp"

namespace snnsec::serve {

void BatcherConfig::validate() const {
  SNNSEC_CHECK(max_batch >= 1, "BatcherConfig: max_batch must be >= 1, got "
                                   << max_batch);
  SNNSEC_CHECK(max_delay_us >= 0,
               "BatcherConfig: max_delay_us must be >= 0, got "
                   << max_delay_us);
  SNNSEC_CHECK(capacity >= max_batch,
               "BatcherConfig: capacity " << capacity
                                          << " must be >= max_batch "
                                          << max_batch);
}

MicroBatcher::MicroBatcher(BatcherConfig cfg)
    : cfg_(cfg),
      fifo_(static_cast<std::size_t>(cfg.capacity), 0),
      free_(static_cast<std::size_t>(cfg.capacity), 0),
      free_top_(cfg.capacity),
      enq_time_(static_cast<std::size_t>(cfg.capacity)) {
  cfg_.validate();
  for (std::int64_t i = 0; i < cfg_.capacity; ++i)
    free_[static_cast<std::size_t>(i)] = i;
}

// SNNSEC_HOT entry: admission fast path, called once per request.
std::int64_t MicroBatcher::try_acquire() {
  // NOLINTNEXTLINE(snnsec-hot-path-lock): admission lock, O(1) critical section
  std::lock_guard<std::mutex> lk(m_);
  if (stopped_ || free_top_ == 0) return -1;
  --free_top_;
  return free_[static_cast<std::size_t>(free_top_)];
}

// SNNSEC_HOT entry: publish path, called once per admitted request.
void MicroBatcher::enqueue(std::int64_t slot) {
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): ring publish, O(1) critical section
    std::lock_guard<std::mutex> lk(m_);
    SNNSEC_CHECK(count_ < cfg_.capacity,
                 "MicroBatcher::enqueue: ring overflow (slot " << slot
                                                               << ")");
    const std::int64_t tail = (head_ + count_) % cfg_.capacity;
    fifo_[static_cast<std::size_t>(tail)] = slot;
    enq_time_[static_cast<std::size_t>(slot)] =
        std::chrono::steady_clock::now();
    ++count_;
  }
  cv_ready_.notify_one();
}

std::int64_t MicroBatcher::next_batch(std::int64_t* out) {
  const auto delay = std::chrono::microseconds(cfg_.max_delay_us);
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    if (count_ > 0) {
      if (count_ >= cfg_.max_batch || stopped_) break;
      const auto flush_at =
          enq_time_[static_cast<std::size_t>(
              fifo_[static_cast<std::size_t>(head_)])] +
          delay;
      if (std::chrono::steady_clock::now() >= flush_at) break;
      cv_ready_.wait_until(lk, flush_at);
    } else {
      if (stopped_) return 0;
      cv_ready_.wait(lk);
    }
  }
  const std::int64_t n = std::min(count_, cfg_.max_batch);
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = fifo_[static_cast<std::size_t>((head_ + i) % cfg_.capacity)];
  }
  head_ = (head_ + n) % cfg_.capacity;
  count_ -= n;
  return n;
}

// SNNSEC_HOT entry: slot recycling, called once per completed request.
void MicroBatcher::release(std::int64_t slot) {
  // NOLINTNEXTLINE(snnsec-hot-path-lock): slot recycle, O(1) critical section
  std::lock_guard<std::mutex> lk(m_);
  SNNSEC_CHECK(slot >= 0 && slot < cfg_.capacity && free_top_ < cfg_.capacity,
               "MicroBatcher::release: bad slot " << slot);
  free_[static_cast<std::size_t>(free_top_)] = slot;
  ++free_top_;
}

void MicroBatcher::stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stopped_ = true;
  }
  cv_ready_.notify_all();
}

bool MicroBatcher::stopped() const {
  std::lock_guard<std::mutex> lk(m_);
  return stopped_;
}

std::int64_t MicroBatcher::depth() const {
  // NOLINTNEXTLINE(snnsec-hot-path-lock): single-field snapshot, O(1) critical section
  std::lock_guard<std::mutex> lk(m_);
  return count_;
}

}  // namespace snnsec::serve
