// bench_detect: ROC + overhead harness for the online adversarial detector.
//
// Trains a small spiking LeNet, calibrates a clean-traffic ActivityEnvelope
// on the training split (the same AnytimeRunner + SketchAccumulator
// pipeline serve::Server runs), then replays clean test traffic and
// PGD / FGSM / SimBA adversarial traffic through a detector-armed Server
// and measures:
//
//   separation   per-attack AUC (Mann-Whitney) of the anomaly score between
//                clean and adversarial requests, plus flag rates at the
//                serve-path default threshold
//   overhead     mean/p99 request latency with the detector on vs off on
//                identical clean traffic — the telemetry tax
//   zero-alloc   operator-new hook asserts the warm, sketch-enabled request
//                path still performs zero heap allocations
//
// Emits BENCH_detect.json; exits non-zero when PGD AUC drops below 0.90
// (the detector's reason to exist) or the steady state allocates.
//
// Attack strengths use the quick-axis calibration (quick ε ≈ paper ε / 10,
// see EXPERIMENTS.md): ε = 0.1 here corresponds to the paper's ε = 1.0 on
// MNIST.
//
// Usage: bench_detect [--smoke] [--out PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "attacks/simba.hpp"
#include "data/provider.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "obs/envelope.hpp"
#include "obs/sketch.hpp"
#include "serve/server.hpp"
#include "snn/anytime.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/thread_pool.hpp"

// ---- allocation-counting hook ----------------------------------------------
// Same device as bench_serve: global new/delete replaced for this binary
// only, so "zero allocations with the sketch enabled" is a measured fact.
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
using tensor::Tensor;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(pos + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 * P(tie). O(n*m) is
/// fine at bench sizes.
double mann_whitney_auc(const std::vector<double>& neg,
                        const std::vector<double>& pos) {
  if (neg.empty() || pos.empty()) return 0.5;
  double wins = 0.0;
  for (double p : pos)
    for (double n : neg) wins += p > n ? 1.0 : (p == n ? 0.5 : 0.0);
  return wins /
         (static_cast<double>(neg.size()) * static_cast<double>(pos.size()));
}

struct Scored {
  std::vector<double> scores;
  std::vector<double> latency_us;
  std::int64_t flagged = 0;
  std::int64_t mispredicted = 0;  ///< pred != label (attack success on adv)
};

/// Serve `x` (one request per row) and collect anomaly scores + latencies.
Scored score_traffic(serve::Server& server, const Tensor& x,
                     const std::vector<std::int64_t>& labels) {
  Scored out;
  const std::int64_t n = x.dim(0);
  serve::InferResult r;
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor img = nn::slice_batch(x, i, i + 1);
    server.infer(img, serve::RequestOptions{}, r);
    out.scores.push_back(r.anomaly_score);
    out.latency_us.push_back(static_cast<double>(r.latency_us));
    if (r.flagged) ++out.flagged;
    if (r.pred != labels[static_cast<std::size_t>(i)]) ++out.mispredicted;
  }
  return out;
}

struct AttackReport {
  std::string name;
  double epsilon = 0.0;
  double auc = 0.5;
  double mean_score = 0.0;
  double flag_rate = 0.0;
  double attack_success = 0.0;  ///< misprediction rate on adversarial input
};

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_detect.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_detect [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  // ---- model: train small, save, serve through the validated-load path.
  data::DataSpec dspec;
  dspec.train_n = smoke ? 600 : 800;
  dspec.test_n = smoke ? 40 : 120;
  dspec.image_size = 16;
  const data::DataBundle bundle = data::load_digits(dspec);

  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  snn::SnnConfig cfg;
  cfg.v_th = 1.0;
  // T=16 even in smoke: T=10 trains to chance at this budget (the paper's
  // learnability cliff), and an untrained victim makes "adversarial"
  // traffic statistically indistinguishable from clean noise.
  cfg.time_steps = 16;
  util::Rng rng(42);
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  nn::TrainConfig tcfg;
  tcfg.epochs = smoke ? 4 : 4;
  tcfg.lr = 4e-3;
  nn::Trainer(tcfg).fit(*model, bundle.train.images, bundle.train.labels);
  const double clean_acc =
      nn::accuracy(*model, bundle.test.images, bundle.test.labels);
  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "snnsec_bench_detect.snnm")
          .string();
  snn::save_spiking_lenet(ckpt, *model, arch, cfg);
  std::printf("model: T=%lld vth=%.1f | data %s | clean accuracy %.1f%%\n",
              static_cast<long long>(cfg.time_steps), cfg.v_th,
              bundle.source(), clean_acc * 100);

  // ---- adversarial traffic (quick ε = paper ε / 10) on the live model.
  attack::AttackBudget budget;
  budget.epsilon = 0.1;
  const std::int64_t n_adv =
      std::min<std::int64_t>(smoke ? 30 : 80, bundle.test.images.dim(0));
  const Tensor clean_x = nn::slice_batch(bundle.test.images, 0, n_adv);
  const std::vector<std::int64_t> adv_labels(
      bundle.test.labels.begin(), bundle.test.labels.begin() + n_adv);

  attack::PgdConfig pcfg;
  pcfg.steps = smoke ? 10 : 40;
  attack::Pgd pgd(pcfg);
  attack::Fgsm fgsm;
  attack::SimbaConfig simba_cfg;
  simba_cfg.max_queries = smoke ? 300 : 1000;
  attack::Simba simba(simba_cfg);

  struct AdvSet {
    const char* name;
    Tensor x;
  };
  std::vector<AdvSet> adv_sets;
  std::printf("generating adversarial traffic (eps=%.2f, %lld samples)\n",
              budget.epsilon, static_cast<long long>(n_adv));
  adv_sets.push_back({"PGD", pgd.perturb(*model, clean_x, adv_labels,
                                         budget)});
  adv_sets.push_back({"FGSM", fgsm.perturb(*model, clean_x, adv_labels,
                                           budget)});
  adv_sets.push_back({"SimBA", simba.perturb(*model, clean_x, adv_labels,
                                             budget)});
  model.reset();

  // ---- calibrate the envelope on clean training traffic.
  const auto artifact = serve::ModelCache::global().acquire(ckpt);
  auto envelope = std::make_shared<obs::ActivityEnvelope>();
  {
    const auto replica = artifact->make_replica();
    snn::AnytimeRunner runner(*replica);
    obs::SketchAccumulator acc;
    acc.configure(runner.sketch_layers());
    runner.set_sketch(&acc);
    const std::int64_t n_cal =
        std::min<std::int64_t>(smoke ? 240 : 400, bundle.train.images.dim(0));
    std::vector<obs::ActivitySketch> sketches(
        static_cast<std::size_t>(n_cal));
    for (std::int64_t i = 0; i < n_cal; ++i) {
      runner.run(nn::slice_batch(bundle.train.images, i, i + 1));
      acc.finalize(0, sketches[static_cast<std::size_t>(i)]);
    }
    envelope->fit(sketches, runner.sketch_layers(), acc.buckets(),
                  artifact->config_hash());
    std::printf("envelope: %s\n", envelope->summary().c_str());
  }

  // ---- detector-armed server (inline mode: comparable numbers).
  serve::ServerConfig scfg;
  scfg.model_path = ckpt;
  scfg.batcher.max_batch = 8;
  scfg.batcher.max_delay_us = 200;
  scfg.batcher.capacity = 64;
  scfg.envelope = envelope;
  serve::Server server(scfg);
  const double threshold = scfg.flag_threshold;

  const std::vector<std::int64_t> clean_labels(
      bundle.test.labels.begin(), bundle.test.labels.begin() + n_adv);
  const Scored clean = score_traffic(server, clean_x, clean_labels);
  std::printf("clean: mean score %.2f | flag rate %.1f%% (threshold %.1f)\n",
              mean(clean.scores),
              100.0 * static_cast<double>(clean.flagged) /
                  static_cast<double>(n_adv),
              threshold);

  std::vector<AttackReport> reports;
  for (const AdvSet& a : adv_sets) {
    const Scored adv = score_traffic(server, a.x, adv_labels);
    AttackReport rep;
    rep.name = a.name;
    rep.epsilon = budget.epsilon;
    rep.auc = mann_whitney_auc(clean.scores, adv.scores);
    rep.mean_score = mean(adv.scores);
    rep.flag_rate = static_cast<double>(adv.flagged) /
                    static_cast<double>(n_adv);
    rep.attack_success = static_cast<double>(adv.mispredicted) /
                         static_cast<double>(n_adv);
    reports.push_back(rep);
    std::printf("%-6s eps=%.2f: AUC %.3f | mean score %.2f | flagged "
                "%.1f%% | attack success %.1f%%\n",
                rep.name.c_str(), rep.epsilon, rep.auc, rep.mean_score,
                100 * rep.flag_rate, 100 * rep.attack_success);
  }

  // ---- detector overhead: identical clean traffic, detector off.
  serve::ServerConfig offcfg = scfg;
  offcfg.envelope = nullptr;
  serve::Server server_off(offcfg);
  const Scored off = score_traffic(server_off, clean_x, clean_labels);
  const double on_mean = mean(clean.latency_us);
  const double off_mean = mean(off.latency_us);
  const double on_p99 = percentile(clean.latency_us, 0.99);
  const double off_p99 = percentile(off.latency_us, 0.99);
  const double overhead_pct =
      off_mean > 0 ? 100.0 * (on_mean - off_mean) / off_mean : 0.0;
  std::printf("overhead: mean %.0fus (on) vs %.0fus (off) = %+.1f%% | p99 "
              "%.0fus vs %.0fus\n",
              on_mean, off_mean, overhead_pct, on_p99, off_p99);

  // ---- zero-alloc steady state with the sketch enabled.
  std::int64_t steady_allocs = 0;
  {
    const Tensor x = nn::slice_batch(bundle.test.images, 0, 1);
    serve::InferResult r;
    for (int i = 0; i < 5; ++i) server.infer(x, serve::RequestOptions{}, r);
    const std::int64_t before = g_allocs.load();
    for (int i = 0; i < 20; ++i) server.infer(x, serve::RequestOptions{}, r);
    steady_allocs = g_allocs.load() - before;
    std::printf("steady-state allocs over 20 detected requests: %lld\n",
                static_cast<long long>(steady_allocs));
  }
  server.stop();
  server_off.stop();
  const serve::ServerStats stats = server.stats();

  // ---- JSON.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_detect: cannot open %s for writing\n",
                 out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"detect\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"threads\": %zu,\n", util::ThreadPool::global().size());
  std::fprintf(f,
               "  \"model\": {\"time_steps\": %lld, \"v_th\": %.2f, "
               "\"data\": \"%s\", \"clean_accuracy\": %.4f},\n",
               static_cast<long long>(cfg.time_steps), cfg.v_th,
               bundle.source(), clean_acc);
  std::fprintf(f,
               "  \"envelope\": {\"samples\": %lld, \"buckets\": %d, "
               "\"flag_threshold\": %.2f},\n",
               static_cast<long long>(envelope->sample_count()),
               envelope->buckets(), threshold);
  std::fprintf(f,
               "  \"clean\": {\"requests\": %lld, \"mean_score\": %.3f, "
               "\"flag_rate\": %.4f},\n",
               static_cast<long long>(n_adv), mean(clean.scores),
               static_cast<double>(clean.flagged) /
                   static_cast<double>(n_adv));
  std::fprintf(f, "  \"attacks\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const AttackReport& r = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"epsilon\": %.2f, \"auc\": %.4f, "
                 "\"mean_score\": %.3f, \"flag_rate\": %.4f, "
                 "\"attack_success\": %.4f}%s\n",
                 r.name.c_str(), r.epsilon, r.auc, r.mean_score, r.flag_rate,
                 r.attack_success, i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"overhead\": {\"mean_on_us\": %.0f, \"mean_off_us\": "
               "%.0f, \"p99_on_us\": %.0f, \"p99_off_us\": %.0f, "
               "\"overhead_pct\": %.2f},\n",
               on_mean, off_mean, on_p99, off_p99, overhead_pct);
  std::fprintf(f, "  \"server\": {\"completed\": %lld, \"flagged\": %lld, "
               "\"errors\": %lld},\n",
               static_cast<long long>(stats.completed),
               static_cast<long long>(stats.flagged),
               static_cast<long long>(stats.errors));
  std::fprintf(f, "  \"steady_state_allocs\": %lld\n",
               static_cast<long long>(steady_allocs));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  int rc = 0;
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: detected request path allocated %lld times in "
                 "steady state (expected 0)\n",
                 static_cast<long long>(steady_allocs));
    rc = 1;
  }
  if (stats.errors != 0) {
    std::fprintf(stderr, "FAIL: %lld requests errored\n",
                 static_cast<long long>(stats.errors));
    rc = 1;
  }
  for (const AttackReport& r : reports) {
    if (r.name == "PGD" && r.auc < 0.90) {
      std::fprintf(stderr,
                   "FAIL: PGD AUC %.3f below the 0.90 acceptance floor\n",
                   r.auc);
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-threaded by default so latency numbers are comparable across
  // machines; export SNNSEC_THREADS before invoking to measure scaling.
  setenv("SNNSEC_THREADS", "1", /*overwrite=*/0);
  return run(argc, argv);
}
