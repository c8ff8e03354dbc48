// Checks the drift-corrected window statistic on synthetic timings: a host
// that runs 2x slow for a third of the windows must not move the recovered
// per-operation cost by more than 1%.
//
// Build and run with the benchmark: ctest --test-dir .bench_build/cmake
#include <cmath>
#include <cstdio>
#include <vector>

#include "drift.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, double rel, const char* what) {
  const bool ok = std::fabs(got - want) <= rel * want;
  std::printf("%s %s: got %.6g, want %.6g (+-%.1f%%)\n", ok ? "ok  " : "FAIL",
              what, got, want, rel * 100);
  if (!ok) ++failures;
}

constexpr int kClasses = 8;
constexpr std::int64_t kOps = 25;
constexpr double kCost = 600e-6;      // true seconds per operation
constexpr double kWindowGap = 0.020;  // window start to window start


/// A third of the 0.5 s stretches slow, or all but one in six.
bool third_slow(int stretch) { return stretch % 3 == 1; }
bool mostly_slow(int stretch) { return stretch % 6 != 0; }

/// 1200 windows of kClasses content classes cycling in order, each of kOps
/// operations whose true cost is kCost times a per-class weight. The host
/// runs 2x slow in the 25-window stretches `slow` picks, which doubles
/// both the window and the reference runs around it. `jitter` adds a
/// deterministic +-jitter relative wobble to each reference time, the
/// noise a single 1 ms reference run shows. With `smooth` the reference
/// times are smoothed as the benchmark smooths them.
std::vector<perfbench::Window> synthetic(bool (*slow)(int), double jitter,
                                         bool smooth = true) {
  std::vector<perfbench::Window> out;
  std::uint32_t s = 12345;
  auto wobble = [&] {
    s = s * 1664525U + 1013904223U;
    return 1.0 + jitter * (static_cast<double>(s >> 8) / 8388608.0 - 1.0);
  };
  for (int i = 0; i < 1200; ++i) {
    const int cls = i % kClasses;
    const double speed = slow(i / 25) ? 2.0 : 1.0;
    perfbench::Window w;
    w.content = cls;
    w.ops = kOps;
    w.at_s = i * kWindowGap;
    w.raw_s = static_cast<double>(kOps) * kCost * (1.0 + 0.1 * cls) * speed;
    w.ref_s = perfbench::kNominalRefSeconds * speed * wobble();
    out.push_back(w);
  }
  if (smooth) perfbench::smooth_reference(out);
  return out;
}

}  // namespace

int main() {
  // Mean class weight 1 + 0.1 * 3.5: what one pass over all classes costs.
  const double want = kCost * 1.35;

  expect_near(perfbench::per_op_seconds(synthetic(third_slow, 0.0)), want,
              0.01, "host 2x slow in 1/3 of windows");
  // Reference noise that survives the smoothing biases the window quantile
  // (it favours windows whose reference read slow), by about 1% at +-5%
  // noise; the bias is the same for every build measured.
  const auto noisy = synthetic(third_slow, 0.05);
  expect_near(perfbench::per_op_seconds(noisy), want, 0.02,
              "host 2x slow in 1/3 of windows, +-5% reference noise");

  // The correction, not the window quantile alone, carries the result: with
  // the host slow in 5/6 of the windows the uncorrected quantile is 2x off.
  const auto slow = synthetic(mostly_slow, 0.05);
  expect_near(perfbench::per_op_seconds(slow), want, 0.02,
              "host 2x slow in 5/6 of windows, +-5% reference noise");
  expect_near(perfbench::per_op_seconds(slow, /*corrected=*/false), 2 * want,
              0.01, "uncorrected statistic, host 2x slow in 5/6 of windows");

  // Per-window statistics (p50) use the same per-class quantile.
  std::vector<double> per_window;
  for (const perfbench::Window& w : noisy)
    per_window.push_back(w.raw_s / kOps * w.factor());
  expect_near(perfbench::per_window_stat(noisy, per_window), want, 0.02,
              "per-window statistic");

  // A single preempted reference run does not move the window it brackets.
  auto spiked = synthetic(third_slow, 0.0, /*smooth=*/false);
  spiked[10].ref_s *= 10.0;  // window 10 lies in a fast stretch
  perfbench::smooth_reference(spiked);
  expect_near(spiked[10].factor(), 1.0, 0.01,
              "one slow reference run is ignored");

  return failures == 0 ? 0 : 1;
}
