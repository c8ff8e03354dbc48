// Shared plumbing for the perfbench workloads: arguments, the prepared
// cells and inputs, drift-corrected windows, spans and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "drift.hpp"
#include "fleet/router.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::snn {
class AnytimeRunner;
class SpikingClassifier;
}  // namespace snnsec::snn

namespace perfbench {

using Clock = std::chrono::steady_clock;
using snnsec::tensor::Tensor;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string prep_dir;   ///< output of `perfbench_run prepare`
  std::string trace_dir;  ///< where a traced run writes its spans
};

/// The three bench_fleet cells: low (0.5, 16), balanced (1.0, 24) and
/// hardened (2.0, 32).
struct CellPlan {
  const char* name;
  snnsec::fleet::GroupRole role;
  double v_th;
  std::int64_t time_steps;
};
inline constexpr int kNumCells = 3;
inline constexpr CellPlan kCells[kNumCells] = {
    {"low", snnsec::fleet::GroupRole::kLowLatency, 0.5, 16},
    {"balanced", snnsec::fleet::GroupRole::kBalanced, 1.0, 24},
    {"hardened", snnsec::fleet::GroupRole::kHardened, 2.0, 32},
};
inline constexpr std::uint64_t kTrustedTenant = 1;
inline constexpr std::uint64_t kHostileTenant = 3;

/// Cells and inputs written by `perfbench_run prepare`, checked against the
/// digests frozen in prepare.cpp so every build serves the same weights and
/// inputs.
struct Prepared {
  std::string checkpoint[kNumCells];
  Tensor clean_x;  ///< [N, 1, 16, 16] clean test images
  std::vector<std::int64_t> clean_y;
  Tensor hostile_x;  ///< PGD-perturbed test images
  std::vector<std::int64_t> hostile_y;
};

/// Train the cells and build the hostile set into `dir` (deterministic).
int prepare(const std::string& dir);
/// Load `dir` and verify it; throws snnsec::util::Error on a mismatch.
Prepared load_prepared(const std::string& dir);

/// splitmix64-driven Fisher-Yates permutation of [0, n).
std::vector<std::int64_t> permutation(std::int64_t n, std::uint64_t seed);

/// Rows `idx` of a batch-major tensor, in that order.
Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx);

/// Argmax with ties to the lowest index (the server's rule).
std::int64_t argmax(const float* row, std::int64_t n);

/// The reference loop plus every timing it produced in this run.
class Host {
 public:
  /// Seconds since the host was set up.
  double now_s() const { return seconds_between(origin_, Clock::now()); }
  double ref() {
    const double s = loop_.time_once();
    samples_.push_back(s);
    return s;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  Clock::time_point origin_ = Clock::now();
  RefLoop loop_;
  std::vector<double> samples_;
};

/// Time `body` (which performs `ops` operations of class `content`)
/// between two runs of the reference loop.
template <class F>
Window measure_window(Host& host, int content, std::int64_t ops, F&& body) {
  Window w;
  w.content = content;
  w.ops = ops;
  const double r0 = host.ref();
  w.at_s = host.now_s();
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  const double r1 = host.ref();
  w.raw_s = seconds_between(t0, t1);
  w.ref_s = 0.5 * (r0 + r1);
  return w;
}

/// Latencies of the requests of one timed loop, grouped per window, with
/// the end-to-end statistics the report prints.
struct LoopTimes {
  std::vector<Window> windows;
  std::vector<std::vector<double>> latency_s;  ///< parallel to windows

  double ops_per_s(bool corrected) const;
  double p50_ms(bool corrected) const;
  double p99_ms(bool corrected) const;
  std::int64_t samples() const;
};

/// A span recorded by the benchmark around a call into one layer. Kept in
/// memory and written once when the run ends.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  ///< index of the parent span, -1 for a root
  std::uint64_t request;
};

class SpanLog {
 public:
  SpanLog();
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::uint64_t request);
  void end(std::int64_t id);
  /// Duration of span `id` in seconds.
  double seconds(std::int64_t id) const;
  std::size_t size() const { return spans_.size(); }
  /// Write every span as a JSON array; returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Counter deltas from the library's metrics registry.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name);
  std::int64_t delta() const;

 private:
  const char* name_;
  std::int64_t start_;
};

/// Collects metrics, prints one report line per metric (corrected next to
/// raw where both exist), then the result JSON as the last stdout line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  void metric(const std::string& name, double value, double raw,
              const char* unit);
  void note(const std::string& text);
  /// Count one checked output; a failed check makes the run incorrect.
  void check(bool ok, const char* what);
  void print_result(std::int64_t attempted, std::int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::int64_t mismatches_ = 0;
  std::int64_t checks_ = 0;
};

/// Run `classes` classes of windows in order, cycle after cycle,
/// until `seconds` have passed at a cycle boundary, so every class is timed
/// equally often. `body(cls, lat)` performs one window of `ops` operations
/// and stores each operation's latency in lat[0..ops); `after(cls)` checks
/// outputs outside the timed region.
template <class Body, class After>
LoopTimes timed_loop(Host& host, double seconds, int classes, std::int64_t ops,
                     Body&& body, After&& after) {
  LoopTimes lt;
  const auto start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    const int cls = static_cast<int>(i % classes);
    if (cls == 0 && i > 0 && seconds_between(start, Clock::now()) >= seconds)
      break;
    std::vector<double> lat(static_cast<std::size_t>(ops));
    lt.windows.push_back(
        measure_window(host, cls, ops, [&] { body(cls, lat); }));
    lt.latency_s.push_back(std::move(lat));
    after(cls);
  }
  smooth_reference(lt.windows);
  return lt;
}

/// Alternate untraced (`plain`) and traced segments of the same loop,
/// `seconds` in all, so slow host drift falls on both alike; returns the
/// traced ops_per_s over the untraced one.
template <class Plain, class Traced, class After>
double traced_ops_ratio(Host& host, double seconds, int classes,
                        std::int64_t ops, Plain&& plain, Traced&& traced,
                        After&& after) {
  constexpr int kPairs = 4;
  const double segment = seconds / (2 * kPairs);
  std::vector<Window> untraced, with_spans;
  for (int p = 0; p < kPairs; ++p) {
    const LoopTimes a = timed_loop(host, segment, classes, ops, plain, after);
    untraced.insert(untraced.end(), a.windows.begin(), a.windows.end());
    const LoopTimes b = timed_loop(host, segment, classes, ops, traced, after);
    with_spans.insert(with_spans.end(), b.windows.begin(), b.windows.end());
  }
  return per_op_seconds(untraced) / per_op_seconds(with_spans);
}

/// `reps` cold stand-ups, each timed between reference loops; `down` tears
/// each one down untimed.
template <class Up, class Down>
std::vector<Window> measure_setup(Host& host, int reps, Up&& up,
                                  Down&& down) {
  std::vector<Window> out;
  for (int r = 0; r < reps; ++r) {
    out.push_back(measure_window(host, 0, 1, up));
    down();
  }
  smooth_reference(out);
  return out;
}

/// Print the seven end-to-end metrics (trace 0).
void report_end_to_end(Report& report, const std::vector<Window>& setup,
                       const LoopTimes& loop, double accuracy,
                       std::int64_t attempted, std::int64_t failed,
                       const Host& host);

/// Registry counters the per-layer figures are derived from, as deltas
/// since construction.
struct Counters {
  CounterDelta gemm_calls{"tensor.gemm.calls"};
  CounterDelta gemm_flops{"tensor.gemm.flops"};
  CounterDelta gemm_events{"tensor.gemm.events_path"};
  CounterDelta pool_tasks{"pool.tasks"};
  CounterDelta fast_canaries{"serve.health.fast_canaries"};
  CounterDelta batches{"serve.batches"};
  CounterDelta grad_evals{"attack.grad_evals"};
};

/// Every per-layer metric of a traced run. A layer that is not on the
/// workload's path reports 0.
struct LayerFigures {
  /// Spiking layers of the prepared cells (lif0..lif4).
  static constexpr int kSpikingLayers = 5;
  double load_ms = 0, build_ms = 0;
  double encode_ns = 0, decode_ns = 0;
  double frontend_self_us = 0, router_self_us = 0, serve_self_us = 0;
  double queue_us = 0, batch_size = 0, canaries_per_batch = 0;
  double step_us[kNumCells] = {};
  double steps_per_req = 0;
  int spiking_layers = 0;  ///< as found in the model; checked
  double spikes_per_step[kNumCells][kSpikingLayers] = {};
  double gemm_calls_per_op = 0, gemm_mflop_per_op = 0, events_share = 0;
  double pool_tasks_per_op = 0;
  double forward_ms = 0, input_grad_ms = 0, grad_evals_per_op = 0;
  double trace_ops_ratio = 0;

  /// Fill the tensor/pool/serve/attack ratios from counter deltas over
  /// `ops` operations.
  void take_counters(const Counters& c, std::int64_t ops);
};

/// setup.load_ms (ModelCache::acquire per checkpoint, cache cleared) and
/// setup.build_ms (`build`, run on the warm cache), medians over 5
/// stand-ups recorded as spans.
void measure_setup_layers(const Prepared& prep, SpanLog& spans,
                          const std::function<void()>& build,
                          LayerFigures& f);

/// Print every per-layer metric (trace 1).
void report_layers(Report& report, const LayerFigures& f, const Host& host);

/// Median of a sample (0 when empty).
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One cell's AnytimeRunner on its own replica, outside the server: the
/// baseline for serve.self_us, and the source of anytime.step_us and the
/// spike counts.
class AnytimeProbe {
 public:
  /// `steps` = 0 runs the cell's full window.
  AnytimeProbe(const std::string& checkpoint, std::int64_t steps);
  ~AnytimeProbe();
  AnytimeProbe(const AnytimeProbe&) = delete;
  AnytimeProbe& operator=(const AnytimeProbe&) = delete;

  /// begin(x) and the steps, each step a span under `parent`; returns the
  /// seconds they took.
  double run(const Tensor& x, SpanLog& spans, std::int64_t parent,
             std::uint64_t request);
  /// Median single-step time of every run() so far, in microseconds.
  double step_us() const;
  /// Spikes per sample-step of each spiking layer (out[0..kSpikingLayers))
  /// over `batches`, from an untimed pass with a sketch attached. Returns
  /// the model's spiking-layer count.
  int count_spikes(const std::vector<Tensor>& batches, double* out);

 private:
  std::unique_ptr<snnsec::snn::SpikingClassifier> model_;
  std::unique_ptr<snnsec::snn::AnytimeRunner> runner_;
  std::int64_t steps_ = 0;
  std::vector<double> step_s_;
};

/// Write a traced run's spans under args.trace_dir (when set).
void write_spans(const Args& args, const SpanLog& spans, Report& report);

/// The process's peak resident set in MiB (VmHWM).
double peak_rss_mb();

/// Serving replica settings shared by the serving workloads: inline
/// execution, supervision with the per-batch fast canary and no deep
/// canary (it fires on an idle timer, which would land in the gaps the
/// reference loop opens).
snnsec::serve::ServerConfig replica_config(std::int64_t max_batch,
                                           std::int64_t max_delay_us);
/// Router over the three prepared cells; tenants are unlimited.
snnsec::fleet::RouterConfig router_config(const Prepared& prep,
                                          std::int64_t max_batch,
                                          std::int64_t max_delay_us);

int run_trusted_wire(const Args& args, const Prepared& prep, Report& report);
int run_hostile_batch(const Args& args, const Prepared& prep,
                      Report& report);
int run_pgd_attack(const Args& args, const Prepared& prep, Report& report);

}  // namespace perfbench
