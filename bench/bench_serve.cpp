// bench_serve: load generator + SLO recorder for the src/serve runtime.
//
// Trains a small spiking LeNet, stands the Server up in inline mode
// (single-threaded by default, like bench_runner, so numbers are comparable
// across runs), and drives it four ways:
//
//   closed-loop  N clients submit back-to-back -> sustained throughput and
//                p50/p95/p99 latency
//   open-loop    paced arrivals at 1.5x the measured closed-loop rate with
//                a per-request deadline -> truncation + shed under pressure
//   deadline     accuracy-vs-max_steps curve over the test split: the
//                anytime guarantee means row t equals a model built with
//                window T' = t
//   zero-alloc   operator-new hook asserts the warm request path performs
//                exactly zero heap allocations (process exits non-zero
//                otherwise)
//
// Emits BENCH_serve.json so the serving SLOs are CI-diffable.
//
// Usage: bench_serve [--smoke] [--out PATH]
//   --smoke   fewer requests / smaller model (CI smoke)
//   --out     output path (default BENCH_serve.json in the CWD)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "data/provider.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/thread_pool.hpp"

// ---- allocation-counting hook ----------------------------------------------
// Same device as bench_runner: global new/delete replaced for this binary
// only, so "zero allocations in steady state" is a measured fact.
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
using bench::closed_loop;
using bench::curve_point;
using bench::CurvePoint;
using bench::LoadResult;
using bench::open_loop;
using bench::write_load;
using tensor::Tensor;

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_serve [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  // ---- model: train small, save, serve through the validated-load path.
  data::DataSpec dspec;
  dspec.train_n = smoke ? 200 : 800;
  dspec.test_n = smoke ? 60 : 150;
  dspec.image_size = 16;
  const data::DataBundle bundle = data::load_digits(dspec);

  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  snn::SnnConfig cfg;
  cfg.v_th = 1.0;
  // T=16 sits above the paper's learnability cliff (T=10 trains to chance
  // at this budget), so the truncation curve has real accuracy to trade.
  cfg.time_steps = smoke ? 10 : 16;
  util::Rng rng(42);
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  nn::TrainConfig tcfg;
  tcfg.epochs = smoke ? 1 : 3;
  tcfg.lr = 4e-3;
  nn::Trainer(tcfg).fit(*model, bundle.train.images, bundle.train.labels);
  const double train_acc =
      nn::accuracy(*model, bundle.test.images, bundle.test.labels);
  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "snnsec_bench_serve.snnm")
          .string();
  snn::save_spiking_lenet(ckpt, *model, arch, cfg);
  model.reset();
  std::printf("model: T=%lld vth=%.1f | data %s | clean accuracy %.1f%%\n",
              static_cast<long long>(cfg.time_steps), cfg.v_th,
              bundle.source(), train_acc * 100);

  serve::ServerConfig scfg;
  scfg.model_path = ckpt;
  scfg.batcher.max_batch = 8;
  scfg.batcher.max_delay_us = 200;
  scfg.batcher.capacity = 64;
  serve::Server server(scfg);

  // ---- closed loop.
  const std::int64_t clients = smoke ? 2 : 4;
  const std::int64_t per_client = smoke ? 25 : 100;
  const LoadResult closed =
      closed_loop(server, bundle.test.images, clients, per_client);
  std::printf("closed loop: %lld clients x %lld -> %.1f req/s | p50 %.0fus "
              "p99 %.0fus | mean batch %.2f\n",
              static_cast<long long>(clients),
              static_cast<long long>(per_client), closed.throughput_rps,
              closed.p50_us, closed.p99_us, closed.mean_batch);

  // ---- open loop at 1.5x the measured closed-loop rate, with a deadline
  // at roughly the closed-loop p50 so pressure shows up as truncation.
  const double rate = std::max(50.0, closed.throughput_rps * 1.5);
  const std::int64_t deadline_us =
      std::max<std::int64_t>(500, static_cast<std::int64_t>(closed.p50_us));
  const std::int64_t open_total = smoke ? 60 : 300;
  const LoadResult open = open_loop(server, bundle.test.images, open_total,
                                    rate, deadline_us, clients * 2);
  std::printf("open loop: %.0f req/s offered, deadline %lldus -> %.1f req/s "
              "| p99 %.0fus | truncated %lld/%lld | shed %lld\n",
              rate, static_cast<long long>(deadline_us),
              open.throughput_rps, open.p99_us,
              static_cast<long long>(open.truncated),
              static_cast<long long>(open.completed),
              static_cast<long long>(open.shed));

  // ---- accuracy vs truncation depth (the anytime dial).
  // 1,2,3,4 then every other step: dense enough to locate the accuracy
  // cliff (spikes take several steps to propagate through the layer stack,
  // so early truncation is chance and the transition is steep).
  std::vector<CurvePoint> curve;
  for (std::int64_t steps = 1; steps <= cfg.time_steps;
       steps = steps < 4 ? steps + 1 : steps + 2) {
    curve.push_back(curve_point(server, bundle, steps));
    if (steps < cfg.time_steps && steps + 2 > cfg.time_steps)
      curve.push_back(curve_point(server, bundle, cfg.time_steps));
  }
  for (const CurvePoint& p : curve)
    std::printf("  max_steps %2lld/%lld: accuracy %5.1f%% | mean latency "
                "%6.0fus\n",
                static_cast<long long>(p.max_steps),
                static_cast<long long>(cfg.time_steps), p.accuracy * 100,
                p.mean_latency_us);

  // ---- zero-alloc steady state: warm the path, then a fixed-geometry
  // request stream must never touch the heap.
  std::int64_t steady_allocs = 0;
  {
    const Tensor x = nn::slice_batch(bundle.test.images, 0, 1);
    serve::InferResult r;
    for (int i = 0; i < 5; ++i) server.infer(x, serve::RequestOptions{}, r);
    const std::int64_t before = g_allocs.load();
    for (int i = 0; i < 20; ++i) server.infer(x, serve::RequestOptions{}, r);
    steady_allocs = g_allocs.load() - before;
    std::printf("steady-state allocs over 20 requests: %lld\n",
                static_cast<long long>(steady_allocs));
  }
  server.stop();
  const serve::ServerStats stats = server.stats();

  // ---- JSON.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_serve: cannot open %s for writing\n",
                 out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"threads\": %zu,\n", util::ThreadPool::global().size());
  std::fprintf(f,
               "  \"model\": {\"time_steps\": %lld, \"v_th\": %.2f, "
               "\"data\": \"%s\", \"clean_accuracy\": %.4f},\n",
               static_cast<long long>(cfg.time_steps), cfg.v_th,
               bundle.source(), train_acc);
  char extra[96];
  std::snprintf(extra, sizeof extra, ", \"clients\": %lld",
                static_cast<long long>(clients));
  write_load(f, "closed_loop", closed, extra);
  std::snprintf(extra, sizeof extra,
                ", \"offered_rps\": %.1f, \"deadline_us\": %lld", rate,
                static_cast<long long>(deadline_us));
  write_load(f, "open_loop", open, extra);
  std::fprintf(f, "  \"deadline_curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i)
    std::fprintf(f,
                 "    {\"max_steps\": %lld, \"accuracy\": %.4f, "
                 "\"mean_latency_us\": %.0f}%s\n",
                 static_cast<long long>(curve[i].max_steps),
                 curve[i].accuracy, curve[i].mean_latency_us,
                 i + 1 < curve.size() ? "," : "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"server\": {\"completed\": %lld, \"shed\": %lld, "
               "\"errors\": %lld, \"batches\": %lld},\n",
               static_cast<long long>(stats.completed),
               static_cast<long long>(stats.shed),
               static_cast<long long>(stats.errors),
               static_cast<long long>(stats.batches));
  std::fprintf(f, "  \"steady_state_allocs\": %lld\n",
               static_cast<long long>(steady_allocs));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: serve request path allocated %lld times in steady "
                 "state (expected 0)\n",
                 static_cast<long long>(steady_allocs));
    return 1;
  }
  if (stats.errors != 0) {
    std::fprintf(stderr, "FAIL: %lld requests errored\n",
                 static_cast<long long>(stats.errors));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-threaded by default so throughput/latency are comparable across
  // machines; export SNNSEC_THREADS before invoking to measure scaling.
  setenv("SNNSEC_THREADS", "1", /*overwrite=*/0);
  return run(argc, argv);
}
