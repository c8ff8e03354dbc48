// Thread pool and parallel_for semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace snnsec::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::int64_t) { count++; });
  parallel_for(7, 3, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<std::int64_t> sum{0};
  parallel_for(10, 20, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 1000,
                   [](std::int64_t i) {
                     if (i == 513) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  constexpr std::int64_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for_chunked(0, kN, [&](std::int64_t lo, std::int64_t hi) {
    ASSERT_LE(lo, hi);
    for (std::int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallsDegradeToSerial) {
  // A worker thread calling parallel_for must not deadlock.
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 32, [&](std::int64_t) {
    parallel_for(0, 32, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 32 * 32);
}

TEST(ParallelFor, LargeGrainRunsSerially) {
  std::vector<int> hits(100, 0);  // not atomic: serial execution expected
  parallel_for(
      0, 100, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; },
      /*grain=*/1000);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ThrowingSubmittedTaskDoesNotTerminateOrDeadlock) {
  // Regression: worker_loop ran task.fn() unprotected, so a throwing task
  // submitted via submit() escaped the worker thread (std::terminate) and
  // left in_flight_ forever non-zero (wait_idle() deadlock).
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&ran, i] {
      ran.fetch_add(1);
      if (i % 2 == 0) throw Error("boom");
    });
  pool.wait_idle();  // must return even though half the tasks threw
  EXPECT_EQ(ran.load(), 8);
  // The pool must still be fully operational afterwards.
  std::atomic<int> after{0};
  for (int i = 0; i < 16; ++i) pool.submit([&after] { after.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, ThrowingTaskOnGlobalPoolLeavesParallelForWorking) {
  ThreadPool& pool = ThreadPool::global();
  pool.submit([] { throw Error("swallowed"); });
  pool.wait_idle();
  // Subsequent parallel_for_chunked calls on the same pool must be intact.
  std::atomic<std::int64_t> sum{0};
  parallel_for_chunked(0, 1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 499500);
}

TEST(ParallelForChunked, PropagatesFirstExceptionWithoutHanging) {
  // Threaded stress: many chunks throw concurrently; exactly one exception
  // (the first) must surface on the caller, and the call must not hang or
  // leave the pool wedged for later work.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for_chunked(0, 10000, [&](std::int64_t lo, std::int64_t) {
        throw Error("chunk " + std::to_string(lo));
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
    }
  }
  std::atomic<int> count{0};
  parallel_for(0, 100, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForChunked, BackToBackFanOutsJoinCleanly) {
  // Regression for the join race: a chunk used to bump the completion count,
  // release the lock and only then notify the caller's condition variable —
  // which the caller may already have destroyed on returning. Each fan-out's
  // join state lives on the caller's stack, so back-to-back calls reuse the
  // same stack slots and a late notify lands on the next call's state. In
  // release builds the old code only hung or crashed now and then; the
  // reliable check is this binary under -DSNNSEC_SANITIZE=thread, where 500
  // such calls flagged the race every time.
  constexpr int kCalls = 2000;
  constexpr std::int64_t kN = 4;
  for (int call = 0; call < kCalls; ++call) {
    std::atomic<std::int64_t> sum{0};
    parallel_for_chunked(0, kN, [&sum](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) sum += i + 1;
    });
    ASSERT_EQ(sum.load(), kN * (kN + 1) / 2) << "call " << call;
  }
}

TEST(ThreadPoolGlobal, IsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

}  // namespace
}  // namespace snnsec::util
