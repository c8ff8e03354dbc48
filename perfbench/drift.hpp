// Host-drift correction for the perfbench timed loops.
//
// The benchmark runs on one pinned vCPU of a shared VM whose speed swings
// by up to 2x over hundreds of milliseconds, with no steal time to show for
// it. Raw run medians therefore spread far wider than any change worth
// measuring. Each timed run is cut into short windows of identical
// content, and each window is bracketed by a fixed reference loop run on
// the same core just before and just after it:
//
//   corrected = raw x kNominalRefSeconds / reference time
//
// so a window that ran while the host was slow is scaled back to nominal
// host speed. One reference run is itself noisy at the millisecond scale,
// while the drift it tracks is slow, so a window's reference time is the
// median of every reference run within kSmoothSeconds of it. The median
// over the corrected windows of each content class then sets aside the
// windows a preemption or a swing shorter than the smoothing span still
// inflated. The reference loop lives here, in the benchmark's own source,
// so no change to the library can move it.
//
// Header-only and free of library includes: test_drift.cpp checks the
// statistic on synthetic timings without building the library.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

/// About the reference loop's median time on the dev host (Intel Xeon
/// vCPU of a 4-vCPU VM); corrected times are "at nominal host speed"
/// relative to it. Frozen: changing it rescales every time metric.
inline constexpr double kNominalRefSeconds = 1.0e-3;

/// Quantile that summarises the corrected windows of one content class.
/// On the dev host the median gave run-to-run spreads about half those of
/// the lower quartile once the reference was smoothed: the correction
/// already removes the slow windows a low quantile would otherwise skip.
inline constexpr double kWindowQuantile = 0.5;

/// Half-width of the span of windows whose reference times are combined
/// (by their median) into one window's reference time.
inline constexpr double kSmoothSeconds = 0.15;

/// The reference workload: kRoundTrips round trips between the calling
/// thread and a partner thread of its own, each a write to one eventfd and
/// a blocking read of the other, so every round trip is two thread
/// handoffs (wake-up, context switch, two system calls each) on the pinned
/// CPU. Three references were timed around the same windows of all three
/// workloads on the dev host, five or six processes per workload. The
/// range of the per-process corrected median window time, as a share of
/// its median, was for trusted_wire / hostile_batch / pgd_attack:
///   - this handoff loop: 2.2%, 5.3%, 2.5%;
///   - a strided walk over a 1 MiB array (the earlier reference): 33%, 9%,
///     8%;
///   - a 64x1024 FMA mat-vec over a 256 KiB weight bank: 23%, 4%, 5%.
/// The host's slow spells show most in wake-ups and kernel entry, which
/// every workload does and no user-space loop sees: trusted_wire (about
/// seven context switches per request) followed the handoff loop at a
/// log-log slope of 0.7-1.0, and the walk at 1.5-4.
class RefLoop {
 public:
  static constexpr int kRoundTrips = 200;

  RefLoop() : ping_(eventfd(0, EFD_CLOEXEC)), pong_(eventfd(0, EFD_CLOEXEC)) {
    if (ping_ < 0 || pong_ < 0)
      throw std::runtime_error("perfbench: eventfd failed");
    partner_ = std::thread([this] {
      // Echo every ping until stop_ is set; a read or write error ends the
      // partner too, and time_once() then reports it.
      while (take(ping_) && !stop_.load(std::memory_order_acquire))
        if (!give(pong_)) return;
    });
  }
  ~RefLoop() {
    stop_.store(true, std::memory_order_release);
    give(ping_);
    partner_.join();
    close(ping_);
    close(pong_);
  }
  RefLoop(const RefLoop&) = delete;
  RefLoop& operator=(const RefLoop&) = delete;

  /// Run the loop once; returns elapsed seconds.
  double time_once() {
    // One untimed round trip first wakes the partner's stack and the
    // kernel's eventfd state, whatever the window before touched.
    round_trips(1);
    const auto t0 = std::chrono::steady_clock::now();
    round_trips(kRoundTrips);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  }

 private:
  static bool give(int fd) {
    const std::uint64_t one = 1;
    ssize_t n;
    do n = write(fd, &one, sizeof one);
    while (n < 0 && errno == EINTR);
    return n == static_cast<ssize_t>(sizeof one);
  }
  static bool take(int fd) {
    std::uint64_t v = 0;
    ssize_t n;
    do n = read(fd, &v, sizeof v);
    while (n < 0 && errno == EINTR);
    return n == static_cast<ssize_t>(sizeof v);
  }
  void round_trips(int n) {
    for (int i = 0; i < n; ++i)
      if (!give(ping_) || !take(pong_))
        throw std::runtime_error("perfbench: reference round trip failed");
  }

  int ping_;
  int pong_;
  std::atomic<bool> stop_{false};
  std::thread partner_;
};

/// Linear-interpolation quantile (numpy's default) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Relative inter-quartile range: (q75 - q25) / median.
inline double rel_iqr(const std::vector<double>& v) {
  const double med = quantile(v, 0.5);
  return med > 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / med : 0.0;
}

/// One timed window: `ops` operations of content class `content` took
/// `raw_s` seconds, starting `at_s` seconds into the run, and the
/// reference loop around it took `ref_s` (the mean of the runs before and
/// after; smooth_reference() widens that to the surrounding span).
struct Window {
  int content = 0;
  std::int64_t ops = 0;
  double raw_s = 0.0;
  double at_s = 0.0;
  double ref_s = kNominalRefSeconds;

  /// raw -> nominal host speed.
  double factor() const { return kNominalRefSeconds / ref_s; }
  double corrected_s() const { return raw_s * factor(); }
};

/// Replace each window's reference time by the median over all windows
/// that started within kSmoothSeconds of it. The median keeps a stretch
/// of slow host from bleeding into the fast windows beside it, and a
/// single preempted reference run from moving any window.
inline void smooth_reference(std::vector<Window>& windows) {
  std::vector<double> smoothed(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::vector<double> span;
    for (const Window& w : windows)
      if (std::abs(w.at_s - windows[i].at_s) <= kSmoothSeconds)
        span.push_back(w.ref_s);
    smoothed[i] = quantile(std::move(span), 0.5);
  }
  for (std::size_t i = 0; i < windows.size(); ++i)
    windows[i].ref_s = smoothed[i];
}

/// Seconds per operation. For each content class, the kWindowQuantile
/// quantile of its windows' times; the classes' times are then summed and
/// divided by the summed operations of one window of each class. With
/// `corrected` false the same statistic runs on raw times.
inline double per_op_seconds(const std::vector<Window>& windows,
                             bool corrected = true) {
  std::map<int, std::vector<double>> secs;
  std::map<int, std::int64_t> ops;
  for (const Window& w : windows) {
    secs[w.content].push_back(corrected ? w.corrected_s() : w.raw_s);
    ops[w.content] = w.ops;
  }
  double total_s = 0.0;
  std::int64_t total_ops = 0;
  for (const auto& [content, v] : secs) {
    total_s += quantile(v, kWindowQuantile);
    total_ops += ops[content];
  }
  return total_ops > 0 ? total_s / static_cast<double>(total_ops) : 0.0;
}

/// Per-class kWindowQuantile quantile of a per-window value (for a window's
/// median latency), averaged over classes.
inline double per_window_stat(const std::vector<Window>& windows,
                              const std::vector<double>& value) {
  std::map<int, std::vector<double>> by_class;
  for (std::size_t i = 0; i < windows.size(); ++i)
    by_class[windows[i].content].push_back(value[i]);
  double sum = 0.0;
  for (const auto& [content, v] : by_class)
    sum += quantile(v, kWindowQuantile);
  return by_class.empty() ? 0.0 : sum / static_cast<double>(by_class.size());
}

}  // namespace perfbench
