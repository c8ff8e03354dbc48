// bench_chaos: fault-injection chaos harness for the supervised serving
// runtime. Emits BENCH_chaos.json so self-healing behaviour is CI-diffable.
//
// Trains the same small spiking LeNet as bench_serve, then:
//
//   overhead      closed-loop load against supervision OFF vs ON servers on
//                 the healthy path; gates the ON/OFF p99 ratio at 1.05 and
//                 asserts the warm ON request path performs zero heap
//                 allocations (operator-new hook)
//   scenarios     for each fault class (weight bit-flips at BER 1e-4, spike
//                 drop 10%, stuck-at-zero 5%, spike jitter 10%, NaN storm in
//                 the readout weights) a chaos hook corrupts the live
//                 replica mid-replay, once, on a supervised and on an
//                 unsupervised server. Records accuracy under fault,
//                 detection latency (requests between injection and
//                 quarantine), quarantines, respawns and retries. Gates:
//                 supervised accuracy within 2% of the no-fault baseline for
//                 the BER/drop scenarios, every quarantine respawned, the
//                 NaN storm recovered via retry, and at least one
//                 unsupervised scenario showing >= 10% accuracy loss.
//   stall         the hook wedges a batch well past the heartbeat timeout;
//                 the watchdog must trip and the replica respawn.
//
// Usage: bench_chaos [--smoke] [--out PATH]
//   --smoke   fewer requests / smaller model / core scenarios only (CI)
//   --out     output path (default BENCH_chaos.json in the CWD)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "data/provider.hpp"
#include "faults/fault.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/thread_pool.hpp"

// ---- allocation-counting hook ----------------------------------------------
// Same device as bench_serve: global new/delete replaced for this binary
// only, so "zero allocations in supervised steady state" is a measured fact.
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
using bench::LoadResult;
using bench::write_load;
using tensor::Tensor;

/// Shared state between the replay driver and the server's chaos hook.
/// The hook fires on the executing thread at the start of every batch; it
/// injects exactly once, and never onto a replica that has already been
/// respawned (ctx.respawns > 0), so healing is observable.
struct ChaosControl {
  std::atomic<bool> enabled{false};
  std::atomic<bool> injected{false};
  std::function<void(snn::SpikingClassifier&)> inject;
};

serve::ChaosHook make_hook(ChaosControl& ctl) {
  return [&ctl](const serve::ChaosContext& ctx) {
    if (!ctl.enabled.load(std::memory_order_relaxed)) return;
    if (ctx.respawns > 0) return;
    if (ctl.injected.exchange(true)) return;
    ctl.inject(*ctx.model);
  };
}

struct ScenarioOutcome {
  double accuracy = 0.0;
  std::int64_t answered = 0;
  std::int64_t errors = 0;
  /// Requests served between injection and the first quarantine
  /// (0 = caught by the canary right after the faulted batch); -1 = never.
  std::int64_t detect_after = -1;
  serve::ServerStats stats;
};

/// Sequential replay of `total` requests over the test split, enabling the
/// chaos hook at request index `trigger` (-1 = never). Single client +
/// inline server => batches of one, so "requests" and "batches" coincide
/// and detection latency is exact.
ScenarioOutcome replay(serve::Server& server, const data::DataBundle& bundle,
                       ChaosControl* ctl, std::int64_t total,
                       std::int64_t trigger) {
  ScenarioOutcome out;
  const std::int64_t n = bundle.test.images.dim(0);
  std::int64_t correct = 0;
  serve::InferResult r;
  for (std::int64_t i = 0; i < total; ++i) {
    if (ctl && i == trigger)
      ctl->enabled.store(true, std::memory_order_relaxed);
    const std::int64_t idx = i % n;
    const Tensor x = nn::slice_batch(bundle.test.images, idx, idx + 1);
    if (server.infer(x, serve::RequestOptions{}, r)) {
      ++out.answered;
      if (r.pred == bundle.test.labels[static_cast<std::size_t>(idx)])
        ++correct;
    } else {
      ++out.errors;
    }
    if (ctl && out.detect_after < 0 && i >= trigger && trigger >= 0 &&
        server.stats().quarantines > 0)
      out.detect_after = i - trigger;
  }
  out.accuracy = total > 0 ? static_cast<double>(correct) /
                                 static_cast<double>(total)
                           : 0.0;
  out.stats = server.stats();
  return out;
}

struct ScenarioPlan {
  const char* name;
  std::function<void(snn::SpikingClassifier&)> inject;
};

struct ScenarioRow {
  const char* name = nullptr;
  ScenarioOutcome on;   // supervised
  ScenarioOutcome off;  // unsupervised
};

serve::ServerConfig base_config(const std::string& ckpt) {
  serve::ServerConfig scfg;
  scfg.model_path = ckpt;
  scfg.batcher.max_batch = 8;
  scfg.batcher.max_delay_us = 200;
  scfg.batcher.capacity = 64;
  scfg.allow_faults = true;  // chaos mode: armed spike faults are replayed
  return scfg;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_chaos [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  // ---- model: identical recipe to bench_serve, so the overhead numbers
  // are comparable against BENCH_serve.json.
  data::DataSpec dspec;
  dspec.train_n = smoke ? 200 : 800;
  dspec.test_n = smoke ? 60 : 150;
  dspec.image_size = 16;
  const data::DataBundle bundle = data::load_digits(dspec);

  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  snn::SnnConfig cfg;
  cfg.v_th = 1.0;
  cfg.time_steps = smoke ? 10 : 16;
  util::Rng rng(42);
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  nn::TrainConfig tcfg;
  tcfg.epochs = smoke ? 1 : 3;
  tcfg.lr = 4e-3;
  nn::Trainer(tcfg).fit(*model, bundle.train.images, bundle.train.labels);
  const double clean_acc =
      nn::accuracy(*model, bundle.test.images, bundle.test.labels);
  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "snnsec_bench_chaos.snnm")
          .string();
  snn::save_spiking_lenet(ckpt, *model, arch, cfg);
  model.reset();
  std::printf("model: T=%lld vth=%.1f | data %s | clean accuracy %.1f%%\n",
              static_cast<long long>(cfg.time_steps), cfg.v_th,
              bundle.source(), clean_acc * 100);

  const std::int64_t total = smoke ? 60 : 200;
  const std::int64_t trigger = std::max<std::int64_t>(4, total * 15 / 100);

  // ---- A. healthy-path overhead: supervision OFF vs ON, identical load.
  const std::int64_t clients = 2;
  const std::int64_t per_client = smoke ? 30 : 100;
  LoadResult off_load;
  LoadResult on_load;
  std::int64_t steady_allocs = 0;
  double p99_ratio = 0.0;
  // One retry of the pair: on a loaded single-core CI box a stray
  // scheduling hiccup can blow a tail percentile in either direction.
  for (int attempt = 0; attempt < 2; ++attempt) {
    {
      serve::Server server(base_config(ckpt));
      off_load = closed_loop(server, bundle.test.images, clients, per_client);
      server.stop();
    }
    {
      serve::ServerConfig scfg = base_config(ckpt);
      scfg.supervisor.enabled = true;
      serve::Server server(scfg);
      on_load = closed_loop(server, bundle.test.images, clients, per_client);
      // Zero-alloc steady state with supervision on: warm, then a
      // fixed-geometry stream (fast canary included) must stay off the heap.
      const Tensor x = nn::slice_batch(bundle.test.images, 0, 1);
      serve::InferResult r;
      for (int i = 0; i < 5; ++i) server.infer(x, serve::RequestOptions{}, r);
      const std::int64_t before = g_allocs.load();
      for (int i = 0; i < 20; ++i)
        server.infer(x, serve::RequestOptions{}, r);
      steady_allocs = g_allocs.load() - before;
      server.stop();
    }
    p99_ratio = off_load.p99_us > 0 ? on_load.p99_us / off_load.p99_us : 0.0;
    if (p99_ratio <= 1.05) break;
  }
  std::printf("overhead: off p50 %.0fus p99 %.0fus | on p50 %.0fus p99 "
              "%.0fus | p99 ratio %.3f | steady allocs %lld\n",
              off_load.p50_us, off_load.p99_us, on_load.p50_us,
              on_load.p99_us, p99_ratio,
              static_cast<long long>(steady_allocs));

  // ---- baseline: same sequential replay, no fault, supervision on.
  double baseline_acc = 0.0;
  {
    serve::ServerConfig scfg = base_config(ckpt);
    scfg.supervisor.enabled = true;
    serve::Server server(scfg);
    baseline_acc = replay(server, bundle, nullptr, total, -1).accuracy;
    server.stop();
  }
  std::printf("baseline replay accuracy (no fault): %.1f%%\n",
              baseline_acc * 100);

  // ---- B. fault scenarios, supervised vs unsupervised.
  std::vector<ScenarioPlan> plans;
  plans.push_back({"weight_ber_1e-4", [](snn::SpikingClassifier& m) {
                     util::Rng frng(123);
                     auto params = m.parameters();
                     faults::inject_weight_bitflips(params, 1e-4, frng);
                   }});
  plans.push_back({"spike_drop_10", [](snn::SpikingClassifier& m) {
                     faults::FaultSpec spec;
                     spec.kind = faults::FaultKind::kSpikeDrop;
                     spec.rate = 0.10;
                     faults::arm_fault(m, spec);
                   }});
  plans.push_back({"nan_storm", [](snn::SpikingClassifier& m) {
                     // Poison the classifier-head bias so the storm is
                     // visible at the logits, not just the hidden state.
                     // +inf rather than NaN: the readout's strictly-greater
                     // running max latches the clean t=0 trace and a NaN
                     // never beats it, whereas +inf reaches the logits —
                     // exactly the non-finite output finalize must catch.
                     auto params = m.parameters();
                     tensor::Tensor& w = params.back()->value;
                     const float inf =
                         std::numeric_limits<float>::infinity();
                     float* d = w.data();
                     const std::int64_t n =
                         std::min<std::int64_t>(w.numel(), 64);
                     for (std::int64_t k = 0; k < n; ++k) d[k] = inf;
                   }});
  if (!smoke) {
    plans.push_back({"stuck_zero_5", [](snn::SpikingClassifier& m) {
                       faults::FaultSpec spec;
                       spec.kind = faults::FaultKind::kStuckAtZero;
                       spec.rate = 0.05;
                       faults::arm_fault(m, spec);
                     }});
    plans.push_back({"spike_jitter_10", [](snn::SpikingClassifier& m) {
                       faults::FaultSpec spec;
                       spec.kind = faults::FaultKind::kSpikeJitter;
                       spec.rate = 0.10;
                       faults::arm_fault(m, spec);
                     }});
  }

  std::vector<ScenarioRow> rows;
  for (const ScenarioPlan& plan : plans) {
    ScenarioRow row;
    row.name = plan.name;
    for (const bool supervised : {true, false}) {
      ChaosControl ctl;
      ctl.inject = plan.inject;
      serve::ServerConfig scfg = base_config(ckpt);
      scfg.supervisor.enabled = supervised;
      scfg.chaos_on_batch = make_hook(ctl);
      serve::Server server(scfg);
      const ScenarioOutcome o = replay(server, bundle, &ctl, total, trigger);
      server.stop();
      (supervised ? row.on : row.off) = o;
    }
    std::printf("%-16s supervised: acc %5.1f%% detect@+%lld q=%lld r=%lld "
                "retries=%lld | unsupervised: acc %5.1f%%\n",
                plan.name, row.on.accuracy * 100,
                static_cast<long long>(row.on.detect_after),
                static_cast<long long>(row.on.stats.quarantines),
                static_cast<long long>(row.on.stats.respawns),
                static_cast<long long>(row.on.stats.retries),
                row.off.accuracy * 100);
    rows.push_back(row);
  }

  // ---- C. stall: wedge one batch past the heartbeat timeout; the
  // watchdog must trip (detection) and the post-batch maintain respawn.
  ScenarioOutcome stall;
  {
    ChaosControl ctl;
    ctl.inject = [](snn::SpikingClassifier&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };
    serve::ServerConfig scfg = base_config(ckpt);
    scfg.supervisor.enabled = true;
    scfg.supervisor.heartbeat_timeout_ms = 40;
    scfg.chaos_on_batch = make_hook(ctl);
    serve::Server server(scfg);
    stall = replay(server, bundle, &ctl, std::min<std::int64_t>(total, 40),
                   8);
    server.stop();
  }
  std::printf("stall: watchdog trips %lld | quarantines %lld | respawns "
              "%lld | errors %lld\n",
              static_cast<long long>(stall.stats.watchdog_trips),
              static_cast<long long>(stall.stats.quarantines),
              static_cast<long long>(stall.stats.respawns),
              static_cast<long long>(stall.errors));

  // ---- gates. Accuracy-based gates only bind when the model actually
  // trained (full mode): a chance-level smoke model cannot show accuracy
  // loss, but the detection/respawn/retry mechanism gates always hold.
  const bool acc_gates_active = baseline_acc >= 0.30;
  const double acc_slack = 0.02;
  bool gate_overhead = p99_ratio > 0.0 && p99_ratio <= 1.05;
  bool gate_allocs = steady_allocs == 0;
  bool gate_detected = true;    // every supervised scenario quarantined
  bool gate_respawned = true;   // ... and respawned its replica
  bool gate_accuracy = true;    // BER/drop supervised within 2% of baseline
  bool gate_retry = false;      // NaN storm recovered via retry, no errors
  double max_unsup_drop = 0.0;
  for (const ScenarioRow& row : rows) {
    if (row.on.stats.quarantines < 1 || row.on.detect_after < 0)
      gate_detected = false;
    if (row.on.stats.respawns < 1 ||
        row.on.stats.respawns < row.on.stats.quarantines)
      gate_respawned = false;
    const std::string name = row.name;
    if (acc_gates_active &&
        (name == "weight_ber_1e-4" || name == "spike_drop_10")) {
      if (row.on.accuracy < baseline_acc - acc_slack) gate_accuracy = false;
    }
    if (name == "nan_storm" && row.on.stats.retries >= 1 &&
        row.on.errors == 0)
      gate_retry = true;
    max_unsup_drop =
        std::max(max_unsup_drop, baseline_acc - row.off.accuracy);
  }
  const bool gate_unsup_loss = !acc_gates_active || max_unsup_drop >= 0.10;
  const bool gate_stall =
      stall.stats.watchdog_trips >= 1 && stall.stats.respawns >= 1;

  // ---- JSON.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_chaos: cannot open %s for writing\n",
                 out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"chaos\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"threads\": %zu,\n", util::ThreadPool::global().size());
  std::fprintf(f,
               "  \"model\": {\"time_steps\": %lld, \"v_th\": %.2f, "
               "\"data\": \"%s\", \"clean_accuracy\": %.4f},\n",
               static_cast<long long>(cfg.time_steps), cfg.v_th,
               bundle.source(), clean_acc);
  std::fprintf(f, "  \"baseline_accuracy\": %.4f,\n", baseline_acc);
  write_load(f, "healthy_off", off_load, "");
  write_load(f, "healthy_on", on_load, "");
  std::fprintf(f, "  \"p99_ratio\": %.4f,\n", p99_ratio);
  std::fprintf(f, "  \"steady_state_allocs\": %lld,\n",
               static_cast<long long>(steady_allocs));
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioRow& row = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"supervised\": {\"accuracy\": %.4f, "
        "\"detect_after_requests\": %lld, \"quarantines\": %lld, "
        "\"respawns\": %lld, \"retries\": %lld, \"errors\": %lld}, "
        "\"unsupervised\": {\"accuracy\": %.4f, \"errors\": %lld}}%s\n",
        row.name, row.on.accuracy,
        static_cast<long long>(row.on.detect_after),
        static_cast<long long>(row.on.stats.quarantines),
        static_cast<long long>(row.on.stats.respawns),
        static_cast<long long>(row.on.stats.retries),
        static_cast<long long>(row.on.errors), row.off.accuracy,
        static_cast<long long>(row.off.errors),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"stall\": {\"watchdog_trips\": %lld, \"quarantines\": "
               "%lld, \"respawns\": %lld, \"errors\": %lld},\n",
               static_cast<long long>(stall.stats.watchdog_trips),
               static_cast<long long>(stall.stats.quarantines),
               static_cast<long long>(stall.stats.respawns),
               static_cast<long long>(stall.errors));
  std::fprintf(
      f,
      "  \"gates\": {\"p99_overhead\": %s, \"zero_alloc\": %s, "
      "\"fault_detected\": %s, \"replica_respawned\": %s, "
      "\"supervised_accuracy\": %s, \"retry_recovery\": %s, "
      "\"unsupervised_loss\": %s, \"stall_recovery\": %s}\n",
      gate_overhead ? "true" : "false", gate_allocs ? "true" : "false",
      gate_detected ? "true" : "false", gate_respawned ? "true" : "false",
      gate_accuracy ? "true" : "false", gate_retry ? "true" : "false",
      gate_unsup_loss ? "true" : "false", gate_stall ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  bool ok = true;
  const auto fail = [&ok](const char* what) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ok = false;
  };
  if (!gate_overhead)
    fail("supervision p99 overhead exceeds 5% of the unsupervised path");
  if (!gate_allocs)
    fail("supervised steady-state request path allocated (expected 0)");
  if (!gate_detected)
    fail("an injected fault went undetected on a supervised server");
  if (!gate_respawned)
    fail("a quarantined replica was not respawned");
  if (!gate_accuracy)
    fail("supervised accuracy under BER/drop faults fell more than 2% "
         "below the no-fault baseline");
  if (!gate_retry)
    fail("NaN-storm requests were not recovered via retry");
  if (!gate_unsup_loss)
    fail("no unsupervised scenario showed measurable accuracy loss");
  if (!gate_stall)
    fail("stalled batch was not caught by the watchdog and respawned");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-threaded like bench_serve, so the overhead ratio is measured on
  // the same inline execution mode BENCH_serve.json records.
  setenv("SNNSEC_THREADS", "1", /*overwrite=*/0);
  return run(argc, argv);
}
