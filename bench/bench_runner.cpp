// bench_runner: the hot-path performance trajectory, recorded.
//
// Times the kernels every experiment in the paper reduces to — GEMM
// (dense and event kernels on LeNet-5 shapes), conv forward/backward, a
// full SNN forward at T in {10, 50}, and a 10-step PGD iteration — and emits
// BENCH_hotpath.json (median-of-k ns/op plus GFLOP/s where flops are
// well-defined) so the perf trajectory is CI-diffable instead of anecdotal.
//
// Also hosts the zero-allocation assertion: a global operator new/delete
// hook counts heap allocations, and after warm-up a steady-state
// Conv2d::forward_into call must perform exactly zero in eval, attack and
// train mode alike (the process exits non-zero otherwise). Runs
// single-threaded by default (SNNSEC_THREADS=1 is set unless the caller
// overrides) so numbers are comparable across runs.
//
// Usage: bench_runner [--quick] [--out PATH]
//   --quick   fewer reps / smaller shapes (CI smoke)
//   --out     output path (default BENCH_hotpath.json in the CWD, i.e. the
//             repo root when invoked as ./build/bench/bench_runner)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "attacks/pgd.hpp"
#include "nn/conv2d.hpp"
#include "snn/lif_layer.hpp"
#include "snn/spiking_lenet.hpp"
#include "tensor/gemm.hpp"
#include "tensor/spike_events.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

// ---- allocation-counting hook ----------------------------------------------
// Replaces global new/delete for this binary only. Counts every heap
// allocation so steady-state zero-alloc claims are asserted, not asserted-by
// -eyeball.
namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace snnsec;
using tensor::Shape;
using tensor::Tensor;
using tensor::Trans;

using Clock = std::chrono::steady_clock;

struct Result {
  std::string name;
  int reps = 0;
  double ns_op = 0.0;    // median wall time per op
  double gflops = 0.0;   // 0 when flops are not well-defined for the op
  std::int64_t extra_i = -1;  // op-specific integer payload (e.g. allocs)
};

const char* mode_name(nn::Mode mode) {
  switch (mode) {
    case nn::Mode::kTrain:
      return "train";
    case nn::Mode::kAttack:
      return "attack";
    case nn::Mode::kEval:
      break;
  }
  return "eval";
}

/// Median-of-k timing of fn(), with `warmup` untimed runs first.
template <typename Fn>
double median_ns(int reps, int warmup, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(ns.begin(), ns.end());
  const std::size_t mid = ns.size() / 2;
  return (ns.size() % 2 == 1) ? ns[mid] : 0.5 * (ns[mid - 1] + ns[mid]);
}

/// MNIST-like test image: ~15% lit foreground pixels (bright enough to
/// drive the constant-current encoder over threshold), dark background that
/// injects no current. Dense uniform noise would push every encoder neuron
/// to ~50% firing — a regime no digit image (or paper experiment) reaches —
/// and would benchmark the spiking stack outside its operating point.
Tensor sparse_image(const Shape& shape, util::Rng& rng) {
  Tensor x = Tensor::rand_uniform(shape, rng);
  const Tensor mask = Tensor::bernoulli(shape, rng, 0.15);
  float* px = x.data();
  const float* pm = mask.data();
  for (std::int64_t i = 0; i < x.numel(); ++i)
    px[i] = pm[i] * (0.6f + 0.4f * px[i]);
  return x;
}

Result bench_gemm(const std::string& name, int reps, int warmup,
                  const Tensor& a, const Tensor& b, Trans tb) {
  const std::int64_t m = a.dim(0), k = a.dim(1);
  const std::int64_t n = (tb == Trans::kNo) ? b.dim(1) : b.dim(0);
  Tensor c(Shape{m, n});
  Result r;
  r.name = name;
  r.reps = reps;
  r.ns_op = median_ns(reps, warmup, [&] {
    tensor::gemm(Trans::kNo, tb, 1.0f, a, b, 0.0f, c);
  });
  r.gflops = (2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k)) /
             r.ns_op;
  return r;
}

/// Event kernel on the Linear layout (C = A W^T): timing INCLUDES the
/// per-call list build — that is the cost a consumer-side layer actually
/// pays. GFLOP/s is dense-equivalent throughput (2mnk over wall time) so
/// the speedup against the dense kernel reads directly off the two rows.
Result bench_events(const std::string& name, int reps, int warmup,
                    const Tensor& a, const Tensor& w) {
  const std::int64_t m = a.dim(0), k = a.dim(1);
  const std::int64_t n = w.dim(0);
  Tensor c(Shape{m, n});
  Result r;
  r.name = name;
  r.reps = reps;
  r.ns_op = median_ns(reps, warmup, [&] {
    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    const tensor::EventRows ev =
        tensor::build_event_rows(a.data(), k, m, k, ws);
    tensor::gemm_events(ev, Trans::kYes, n, 1.0f, w.data(), k, 0.0f, c.data(),
                        n);
  });
  r.gflops = (2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k)) /
             r.ns_op;
  return r;
}

Result bench_gemm_reference(const std::string& name, int reps, int warmup,
                            const Tensor& a, const Tensor& b, Trans tb) {
  const std::int64_t m = a.dim(0), k = a.dim(1);
  const std::int64_t n = (tb == Trans::kNo) ? b.dim(1) : b.dim(0);
  Tensor c(Shape{m, n});
  Result r;
  r.name = name;
  r.reps = reps;
  r.ns_op = median_ns(reps, warmup, [&] {
    tensor::gemm_reference(Trans::kNo, tb, 1.0f, a, b, 0.0f, c);
  });
  r.gflops = (2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k)) /
             r.ns_op;
  return r;
}

void write_json(const std::string& path, const std::vector<Result>& results,
                double fc1_speedup, double events_speedup,
                std::int64_t conv_allocs, std::int64_t event_allocs,
                bool quick) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_runner: cannot open %s for writing\n",
                 path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"hotpath\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"threads\": %zu,\n", util::ThreadPool::global().size());
  std::fprintf(f, "  \"gemm_dense_fc1_speedup_vs_reference\": %.3f,\n",
               fc1_speedup);
  std::fprintf(f, "  \"gemm_events_fc1_r10_speedup_vs_dense\": %.3f,\n",
               events_speedup);
  std::fprintf(f, "  \"conv_forward_steady_state_allocs\": %lld,\n",
               static_cast<long long>(conv_allocs));
  std::fprintf(f, "  \"event_forward_steady_state_allocs\": %lld,\n",
               static_cast<long long>(event_allocs));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"reps\": %d, \"ns_op\": %.1f",
                 r.name.c_str(), r.reps, r.ns_op);
    if (r.gflops > 0.0) std::fprintf(f, ", \"gflops\": %.3f", r.gflops);
    if (r.extra_i >= 0)
      std::fprintf(f, ", \"allocs\": %lld", static_cast<long long>(r.extra_i));
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_runner [--quick] [--out PATH]\n");
      return 2;
    }
  }
  const int reps = quick ? 5 : 15;
  const int warmup = 2;
  std::vector<Result> results;

  // ---- GEMM: dense LeNet-5 fc1 (batch 64, 400 -> 120), exactly the
  // Linear::forward layout (B = W, transposed).
  util::Rng rng(42);
  const Tensor fc1_w = Tensor::randn(Shape{120, 400}, rng);
  const Tensor fc1_dense = Tensor::randn(Shape{64, 400}, rng);

  const Result ref = bench_gemm_reference("gemm_reference_fc1", reps, warmup,
                                          fc1_dense, fc1_w, Trans::kYes);
  const Result dense = bench_gemm("gemm_dense_fc1", reps, warmup, fc1_dense,
                                  fc1_w, Trans::kYes);
  // A square shape big enough to stress all three cache-block loops.
  const Tensor sq_a = Tensor::randn(Shape{384, 384}, rng);
  const Tensor sq_b = Tensor::randn(Shape{384, 384}, rng);
  const Result square = bench_gemm("gemm_dense_384", quick ? 3 : reps, warmup,
                                   sq_a, sq_b, Trans::kNo);
  results.push_back(ref);
  results.push_back(dense);
  results.push_back(square);
  const double fc1_speedup = ref.ns_op / dense.ns_op;
  std::printf("gemm fc1: reference %.0f ns, blocked %.0f ns  (%.2fx)\n",
              ref.ns_op, dense.ns_op, fc1_speedup);

  // ---- Per-firing-rate kernel curve: the fc1 shape at spike densities
  // 5/10/20/35/50%, the event-list kernel against the rate-independent
  // dense row above. This is the curve that justifies building spike-fed
  // layers with event inputs: at SNN firing rates (5-20%) the event kernel
  // wins outright, and its margin narrows in the tail rates.
  double events_speedup = 0.0;
  for (const int rate : {5, 10, 20, 35, 50}) {
    char suffix[8];
    std::snprintf(suffix, sizeof suffix, "_r%02d", rate);
    const Tensor spikes =
        Tensor::bernoulli(Shape{64, 400}, rng, rate / 100.0);
    const Result re = bench_events("gemm_events_fc1" + std::string(suffix),
                                   reps, warmup, spikes, fc1_w);
    std::printf("gemm fc1 @%2d%%: dense %.0f ns, events %.0f ns (events "
                "%.2fx dense)\n",
                rate, dense.ns_op, re.ns_op, dense.ns_op / re.ns_op);
    if (rate == 10) events_speedup = dense.ns_op / re.ns_op;
    results.push_back(re);
  }

  // ---- Conv2d forward/backward: LeNet-5 conv2 (6 -> 16, 5x5, pad 2) on
  // 14x14 feature maps, batch 8.
  nn::Conv2d conv(nn::Conv2dSpec{6, 16, 5, 1, 2}, rng);
  const Tensor cx = Tensor::randn(Shape{8, 6, 14, 14}, rng);
  const Tensor cg = Tensor::randn(Shape{8, 16, 14, 14}, rng);
  {
    Result r;
    r.name = "conv2d_forward";
    r.reps = reps;
    Tensor y;
    r.ns_op = median_ns(reps, warmup,
                        [&] { conv.forward_into(cx, y, nn::Mode::kEval); });
    results.push_back(r);
  }
  {
    Result r;
    r.name = "conv2d_backward";
    r.reps = reps;
    r.ns_op = median_ns(reps, warmup, [&] {
      conv.forward(cx, nn::Mode::kTrain);
      Tensor dx = conv.backward(cg);
    });
    results.push_back(r);
  }

  // ---- Attack-mode conv forward at the pgd_attack conv2 shape: 3 -> 8,
  // 5x5, pad 2 on 8x8 maps, batch 2 x T 24 (the balanced cell) — the dense
  // lowering every PGD step runs.
  {
    nn::Conv2d conv_at(nn::Conv2dSpec{3, 8, 5, 1, 2}, rng);
    const Tensor ax = Tensor::randn(Shape{48, 3, 8, 8}, rng);
    Result r;
    r.name = "conv2d_forward_attack";
    r.reps = reps;
    Tensor y;
    r.ns_op = median_ns(reps, warmup, [&] {
      conv_at.forward_into(ax, y, nn::Mode::kAttack);
    });
    results.push_back(r);
  }

  // ---- Attack-mode conv backward at the pgd_attack conv1 shape: 1 -> 3,
  // 5x5, pad 2 on 16x16 inputs, batch 2 x T 24 — the input gradient every
  // PGD step differentiates through (own rng, so the rows below keep their
  // data).
  {
    util::Rng brng(9);
    nn::Conv2d conv_bw(nn::Conv2dSpec{1, 3, 5, 1, 2}, brng);
    const Tensor bx = Tensor::randn(Shape{48, 1, 16, 16}, brng);
    const Tensor bg = Tensor::randn(Shape{48, 3, 16, 16}, brng);
    conv_bw.forward(bx, nn::Mode::kAttack);
    Result r;
    r.name = "conv2d_backward_attack";
    r.reps = reps;
    r.ns_op = median_ns(reps, warmup,
                        [&] { Tensor dx = conv_bw.backward(bg); });
    results.push_back(r);
  }

  // ---- Zero-alloc assertion: after warm-up, a Conv2d::forward_into call
  // must not touch the heap at all (workspace arena + reused output and
  // input-cache buffers) in any mode. Counted over several calls to catch
  // stragglers.
  std::int64_t conv_allocs = 0;
  for (const nn::Mode mode :
       {nn::Mode::kEval, nn::Mode::kAttack, nn::Mode::kTrain}) {
    nn::Conv2d conv2(nn::Conv2dSpec{6, 16, 5, 1, 2}, rng);
    Tensor y;
    for (int i = 0; i < 3; ++i) conv2.forward_into(cx, y, mode);
    const std::int64_t before = g_allocs.load();
    for (int i = 0; i < 10; ++i) conv2.forward_into(cx, y, mode);
    const std::int64_t allocs = g_allocs.load() - before;
    conv_allocs += allocs;
    std::printf("conv2d_forward (%s) steady-state allocs over 10 calls: %lld\n",
                mode_name(mode), static_cast<long long>(allocs));
  }
  {
    Result r;
    r.name = "conv2d_forward_steady_state";
    r.reps = 30;
    r.extra_i = conv_allocs;
    results.push_back(r);
  }

  // ---- Event-driven conv forward: the same conv2 shape fed 10% spikes
  // through the event-input layer (what the spiking stack runs in eval),
  // plus the event path's own steady-state zero-alloc assertion — lists,
  // packed weights, and the Ct buffer must all come from the arena.
  std::int64_t event_allocs = 0;
  {
    nn::Conv2d conv_ev(nn::Conv2dSpec{6, 16, 5, 1, 2}, rng, /*bias=*/true,
                       nn::InputKind::kEvents);
    const Tensor sx = Tensor::bernoulli(Shape{8, 6, 14, 14}, rng, 0.1);
    Tensor y;
    Result r;
    r.name = "conv2d_forward_events";
    r.reps = reps;
    r.ns_op = median_ns(reps, warmup,
                        [&] { conv_ev.forward_into(sx, y, nn::Mode::kEval); });
    const std::int64_t before = g_allocs.load();
    for (int i = 0; i < 10; ++i) conv_ev.forward_into(sx, y, nn::Mode::kEval);
    event_allocs = g_allocs.load() - before;
    r.extra_i = event_allocs;
    results.push_back(r);
    std::printf(
        "conv2d_forward_events %.0f ns; steady-state allocs over 10 calls: "
        "%lld\n",
        r.ns_op, static_cast<long long>(event_allocs));
  }

  // ---- Full SNN forward at T in {10, 50}: half-scale spiking LeNet on
  // 16x16 inputs, batch 8 — the unit of work every attack step multiplies.
  for (const std::int64_t t : {std::int64_t{10}, std::int64_t{50}}) {
    nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
    arch.image_size = 16;
    snn::SnnConfig cfg;
    cfg.time_steps = t;
    util::Rng mrng(7);
    auto model = snn::build_spiking_lenet(arch, cfg, mrng);
    const Tensor x = sparse_image(Shape{8, 1, 16, 16}, mrng);
    Result r;
    r.name = "snn_forward_T" + std::to_string(t);
    r.reps = quick ? 3 : 7;
    r.ns_op = median_ns(r.reps, 1, [&] {
      Tensor logits = model->logits(x);
    });
    results.push_back(r);
  }

  // ---- One 10-step PGD iteration on the same small SNN (T=10, batch 4):
  // the paper's Fig. 7/8 unit of work.
  {
    nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
    arch.image_size = 16;
    snn::SnnConfig cfg;
    cfg.time_steps = 10;
    util::Rng mrng(8);
    auto model = snn::build_spiking_lenet(arch, cfg, mrng);
    const Tensor x = sparse_image(Shape{4, 1, 16, 16}, mrng);
    const std::vector<std::int64_t> labels{0, 1, 2, 3};
    attack::PgdConfig pcfg;
    pcfg.steps = 10;
    pcfg.random_start = false;
    attack::AttackBudget budget;
    budget.epsilon = 0.1;
    attack::Pgd pgd(pcfg);
    Result r;
    r.name = "pgd_10step";
    r.reps = quick ? 3 : 5;
    r.ns_op = median_ns(r.reps, 1, [&] {
      Tensor adv = pgd.perturb(*model, x, labels, budget);
    });
    results.push_back(r);
  }

  write_json(out, results, fc1_speedup, events_speedup, conv_allocs,
             event_allocs, quick);
  std::printf("wrote %s\n", out.c_str());

  if (conv_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: Conv2d::forward_into allocated %lld times in steady "
                 "state across eval/attack/train (expected 0)\n",
                 static_cast<long long>(conv_allocs));
    return 1;
  }
  if (event_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: event-driven conv forward allocated %lld times in "
                 "steady state (expected 0)\n",
                 static_cast<long long>(event_allocs));
    return 1;
  }
  if (fc1_speedup < 3.0)
    std::fprintf(stderr,
                 "WARN: blocked gemm only %.2fx the seed scalar kernel on the "
                 "dense fc1 shape (target >= 3x)\n",
                 fc1_speedup);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-threaded by default so ns/op is comparable across machines and
  // runs; export SNNSEC_THREADS before invoking to measure scaling.
  setenv("SNNSEC_THREADS", "1", /*overwrite=*/0);
  return run(argc, argv);
}
