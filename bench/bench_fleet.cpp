// bench_fleet: fleet-scale serving harness for the sharded (Vth, T)
// ensemble. Emits BENCH_fleet.json so routing, quota, ensemble robustness
// and self-healing behaviour are CI-diffable.
//
// Trains three (Vth, T) cells picked from the learnable region of the
// fig6 grid — (0.5, 16) low-latency, (1.0, 24) balanced, (2.0, 32)
// hardened — then:
//
//   adversarial   splits the test set into thirds and attacks each third
//                 white-box (PGD, quick profile) against one cell's
//                 surrogate. Records the full cell x third transfer
//                 matrix, each cell's accuracy over the whole mixed
//                 adversarial set, and the hostile-tenant ensemble vote.
//                 Gate (full mode): ensemble accuracy strictly above the
//                 best single cell.
//   load          ~1M mixed-tenant requests closed-loop through the
//                 router: trusted traffic rides the low-latency cliff
//                 budget, suspect traffic the hardened cell, a sliver of
//                 hostile traffic the ensemble, and a quota-capped tenant
//                 supplies the bulk of the offered volume (admission
//                 rejects happen before any model work, so offered load
//                 can exceed model throughput by orders of magnitude).
//                 Gates: offered >= target, zero errors, quota enforced.
//   zero-alloc    after warm-up, 20 trusted routes, 20 quota rejects and
//                 20 ensemble votes must perform zero heap allocations
//                 (operator-new hook).
//   chaos         a separate supervised fleet with chaos armed on one
//                 replica of the hardened group; weight bit-flips are
//                 injected mid-replay. Gates: the faulted replica is
//                 quarantined AND respawned with zero client-visible
//                 errors.
//   tcp           the same router behind a loopback fleet::Frontend,
//                 driven by the shared loadgen over the binary wire
//                 protocol. Gates: every request answered, zero malformed
//                 frames.
//
// Usage: bench_fleet [--smoke] [--out PATH]
//   --smoke   fewer requests / 1-epoch cells / accuracy gates relaxed (CI)
//   --out     output path (default BENCH_fleet.json in the CWD)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/pgd.hpp"
#include "data/provider.hpp"
#include "faults/fault.hpp"
#include "fleet/frontend.hpp"
#include "fleet/loadgen.hpp"
#include "fleet/router.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "serve/server.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/thread_pool.hpp"

// ---- allocation-counting hook ----------------------------------------------
// Same device as bench_serve/bench_chaos: global new/delete replaced for
// this binary only, so "zero allocations on the steady request path" is a
// measured fact rather than a code-review claim.
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

// Tenant convention shared with snnsec_fleet: 1 trusted, 2 suspect,
// 3 hostile; 4 is the quota-capped bulk tenant, 5 a fixed-budget tenant
// reserved for the allocation gate (its bucket never refills).
constexpr std::uint64_t kTrustedTenant = 1;
constexpr std::uint64_t kSuspectTenant = 2;
constexpr std::uint64_t kHostileTenant = 3;
constexpr std::uint64_t kBulkTenant = 4;
constexpr std::uint64_t kBudgetTenant = 5;

struct CellPlan {
  const char* name;
  fleet::GroupRole role;
  double v_th;
  std::int64_t time_steps;
};

struct CellState {
  CellPlan plan;
  std::string checkpoint;
  double clean_accuracy = 0.0;
  std::unique_ptr<snn::SpikingClassifier> surrogate;  // white-box copy
};

/// Shared state between the replay driver and a replica's chaos hook
/// (bench_chaos pattern): inject exactly once, never onto a replica that
/// has already been respawned, so healing stays observable.
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

serve::ServerConfig replica_config() {
  serve::ServerConfig scfg;
  scfg.batcher.max_batch = 8;
  scfg.batcher.max_delay_us = 200;
  scfg.batcher.capacity = 64;
  scfg.supervisor.enabled = true;
  return scfg;
}

fleet::RouterConfig fleet_config(const std::vector<CellState>& cells) {
  fleet::RouterConfig rc;
  for (const CellState& c : cells) {
    fleet::GroupConfig gc;
    gc.name = c.plan.name;
    gc.role = c.plan.role;
    gc.model_path = c.checkpoint;
    gc.replicas = 1;
    gc.server = replica_config();
    rc.groups.push_back(gc);
  }
  rc.tenants.push_back({kTrustedTenant, fleet::Threat::kTrusted, 0, 0});
  rc.tenants.push_back({kSuspectTenant, fleet::Threat::kSuspect, 0, 0});
  rc.tenants.push_back({kHostileTenant, fleet::Threat::kHostile, 0, 0});
  rc.tenants.push_back({kBulkTenant, fleet::Threat::kTrusted, 100.0, 100.0});
  rc.tenants.push_back({kBudgetTenant, fleet::Threat::kTrusted, 0.0, 3.0});
  rc.default_tenant.threat = fleet::Threat::kTrusted;
  return rc;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fleet [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  // ---- cells: the fig6 learnability recipe (image 16, half-width LeNet,
  // lr 4e-3) at three points spanning the (Vth, T) grid's learnable region.
  data::DataSpec dspec;
  dspec.train_n = smoke ? 200 : 1000;
  dspec.test_n = smoke ? 60 : 200;
  dspec.image_size = 16;
  const data::DataBundle bundle = data::load_digits(dspec);

  std::vector<CellState> cells;
  cells.push_back({{"low", fleet::GroupRole::kLowLatency, 0.5, 16}, {}, 0,
                   nullptr});
  cells.push_back({{"balanced", fleet::GroupRole::kBalanced, 1.0, 24}, {}, 0,
                   nullptr});
  cells.push_back({{"hardened", fleet::GroupRole::kHardened, 2.0, 32}, {}, 0,
                   nullptr});

  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellState& c = cells[i];
    nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
    arch.image_size = 16;
    snn::SnnConfig cfg;
    cfg.v_th = c.plan.v_th;
    cfg.time_steps = c.plan.time_steps;
    util::Rng rng(42 + static_cast<std::uint64_t>(i));
    auto model = snn::build_spiking_lenet(arch, cfg, rng);
    nn::TrainConfig tcfg;
    tcfg.epochs = smoke ? 1 : 5;
    tcfg.lr = 4e-3;
    nn::Trainer(tcfg).fit(*model, bundle.train.images, bundle.train.labels);
    c.clean_accuracy =
        nn::accuracy(*model, bundle.test.images, bundle.test.labels);
    c.checkpoint = (std::filesystem::temp_directory_path() /
                    ("snnsec_bench_fleet_" + std::string(c.plan.name) +
                     ".snnm"))
                       .string();
    snn::save_spiking_lenet(c.checkpoint, *model, arch, cfg);
    c.surrogate = std::move(model);
    std::printf("cell %-8s vth=%.1f T=%-2lld clean accuracy %.1f%%\n",
                c.plan.name, c.plan.v_th,
                static_cast<long long>(c.plan.time_steps),
                c.clean_accuracy * 100);
  }
  const double best_clean =
      std::max({cells[0].clean_accuracy, cells[1].clean_accuracy,
                cells[2].clean_accuracy});
  // Accuracy gates only bind when the cells actually trained (full mode):
  // 1-epoch smoke cells cannot support a robustness comparison.
  const bool acc_gates_active = !smoke && best_clean >= 0.5;

  fleet::Router router(fleet_config(cells));

  // ---- A. adversarial ensemble: thirds of the test set, each attacked
  // white-box against one cell (the mixed-attacker population an open
  // endpoint actually faces — nobody tells the attacker which cell serves
  // them). Quick attack profile: eps 0.1 on [0,1] pixels, 10 PGD steps.
  const double eps = 0.1;
  const std::int64_t pgd_steps = smoke ? 5 : 10;
  const std::int64_t adv_per_cell =
      std::min<std::int64_t>(smoke ? 4 : 40, bundle.test.images.dim(0) / 3);
  const std::int64_t adv_n = adv_per_cell * 3;

  std::vector<Tensor> adv_thirds;
  std::vector<std::vector<std::int64_t>> adv_labels;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const std::int64_t a = static_cast<std::int64_t>(k) * adv_per_cell;
    const std::int64_t b = a + adv_per_cell;
    const Tensor clean = nn::slice_batch(bundle.test.images, a, b);
    std::vector<std::int64_t> labels(
        bundle.test.labels.begin() + a, bundle.test.labels.begin() + b);
    attack::PgdConfig pc;
    pc.steps = pgd_steps;
    pc.rel_stepsize = 0.1;
    pc.seed = 99 + k;
    attack::Pgd pgd(pc);
    attack::AttackBudget budget;
    budget.epsilon = eps;
    adv_thirds.push_back(
        pgd.perturb(*cells[k].surrogate, clean, labels, budget));
    adv_labels.push_back(std::move(labels));
  }

  // Transfer matrix: matrix[g][k] = cell g's accuracy on the third attacked
  // against cell k. Diagonal = white-box self-attack, off-diagonal =
  // transfer across (Vth, T) cells.
  double matrix[3][3] = {};
  double single_cell[3] = {};
  for (std::size_t g = 0; g < cells.size(); ++g) {
    for (std::size_t k = 0; k < cells.size(); ++k) {
      matrix[g][k] = nn::accuracy(*cells[g].surrogate, adv_thirds[k],
                                  adv_labels[k]);
      single_cell[g] += matrix[g][k] / 3.0;
    }
  }
  const double best_single =
      std::max({single_cell[0], single_cell[1], single_cell[2]});

  // Ensemble vote over the same mixed adversarial set, through the router's
  // hostile-tenant path (majority over all cells, tie -> highest Vth).
  std::int64_t ens_correct = 0;
  std::int64_t ens_ties = 0;
  {
    fleet::FleetResult fr;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      for (std::int64_t i = 0; i < adv_per_cell; ++i) {
        const Tensor x = nn::slice_batch(adv_thirds[k], i, i + 1);
        if (router.infer(kHostileTenant, x, serve::RequestOptions{}, fr) &&
            fr.result.pred ==
                adv_labels[k][static_cast<std::size_t>(i)])
          ++ens_correct;
        if (fr.tie_break) ++ens_ties;
      }
    }
  }
  const double ensemble_acc =
      static_cast<double>(ens_correct) / static_cast<double>(adv_n);
  std::printf("adversarial (eps %.2f, %lld PGD steps, %lld samples):\n",
              eps, static_cast<long long>(pgd_steps),
              static_cast<long long>(adv_n));
  for (std::size_t g = 0; g < cells.size(); ++g)
    std::printf("  cell %-8s self %5.1f%% | mixed-set %5.1f%%\n",
                cells[g].plan.name, matrix[g][g] * 100,
                single_cell[g] * 100);
  std::printf("  ensemble %5.1f%% (best single %5.1f%%, ties %lld)\n",
              ensemble_acc * 100, best_single * 100,
              static_cast<long long>(ens_ties));

  // ---- B. ~1M mixed-tenant requests. The bulk tenant's token bucket
  // admits ~100 rps and rejects the rest before any model work, so offered
  // volume is decoupled from model throughput; the other tenants exercise
  // the three routing paths at full depth.
  const fleet::RouterStats pre_load = router.stats();
  fleet::RouterTarget target(router);
  fleet::LoadSpec spec;
  spec.mode = fleet::LoadSpec::Mode::kClosed;
  spec.total = smoke ? 20000 : 1000000;
  spec.clients = 4;
  spec.seed = 11;
  spec.mix.push_back({kTrustedTenant, 1.0});
  spec.mix.push_back({kSuspectTenant, 0.5});
  spec.mix.push_back({kHostileTenant, 0.1});
  spec.mix.push_back({kBulkTenant, 98.4});
  const fleet::LoadReport load =
      fleet::run_load(target, bundle.test.images, spec);
  const fleet::RouterStats post_load = router.stats();
  std::printf("load: offered %lld (%.0f rps) | completed %lld (%.0f rps) | "
              "quota-rejected %lld | shed %lld | errors %lld | p50 %.0fus "
              "p99 %.0fus\n",
              static_cast<long long>(load.offered), load.offered_rps,
              static_cast<long long>(load.completed), load.throughput_rps,
              static_cast<long long>(load.quota_rejected),
              static_cast<long long>(load.shed),
              static_cast<long long>(load.errors), load.p50_us, load.p99_us);
  for (std::size_t g = 0; g < post_load.groups.size(); ++g) {
    const std::int64_t done = post_load.groups[g].completed -
                              pre_load.groups[g].completed;
    std::printf("  group %-8s completed %lld (%.0f rps)\n",
                post_load.groups[g].name.c_str(),
                static_cast<long long>(done),
                load.wall_s > 0 ? static_cast<double>(done) / load.wall_s
                                : 0.0);
  }

  // ---- C. zero-alloc steady state: warm each routing path, then a fixed
  // window of requests must stay off the heap. The budget tenant's bucket
  // (burst 3, no refill) is empty by now, so its window measures the
  // quota-reject path.
  std::int64_t alloc_route = 0;
  std::int64_t alloc_quota = 0;
  std::int64_t alloc_ensemble = 0;
  {
    const Tensor x = nn::slice_batch(bundle.test.images, 0, 1);
    fleet::FleetResult fr;
    const auto window = [&](std::uint64_t tenant) {
      for (int i = 0; i < 5; ++i)
        router.infer(tenant, x, serve::RequestOptions{}, fr);
      const std::int64_t before = g_allocs.load();
      for (int i = 0; i < 20; ++i)
        router.infer(tenant, x, serve::RequestOptions{}, fr);
      return g_allocs.load() - before;
    };
    alloc_route = window(kTrustedTenant);
    alloc_quota = window(kBudgetTenant);
    alloc_ensemble = window(kHostileTenant);
  }
  std::printf("steady-state allocs: trusted %lld | quota-reject %lld | "
              "ensemble %lld\n",
              static_cast<long long>(alloc_route),
              static_cast<long long>(alloc_quota),
              static_cast<long long>(alloc_ensemble));

  // ---- D. TCP loopback: the same router behind a fleet::Frontend, driven
  // over the binary wire protocol by the shared loadgen.
  fleet::LoadReport tcp;
  fleet::FrontendStats fes;
  {
    fleet::FrontendConfig fc;
    fc.port = 0;
    fc.executors = 2;
    fleet::Frontend fe(router, fc);
    fleet::WireTarget wire("127.0.0.1", fe.port(),
                           4 + 4 * 16 * 16 + 1024);
    fleet::LoadSpec tspec;
    tspec.mode = fleet::LoadSpec::Mode::kClosed;
    tspec.total = smoke ? 300 : 2000;
    tspec.clients = 3;
    tspec.seed = 13;
    tspec.mix.push_back({kTrustedTenant, 2.0});
    tspec.mix.push_back({kSuspectTenant, 1.0});
    tspec.mix.push_back({kHostileTenant, 0.2});
    tcp = fleet::run_load(wire, bundle.test.images, tspec);
    fe.stop();
    fes = fe.stats();
  }
  router.stop();
  std::printf("tcp: offered %lld | completed %lld | errors %lld | malformed "
              "%lld | %.0f rps | p50 %.0fus p99 %.0fus\n",
              static_cast<long long>(tcp.offered),
              static_cast<long long>(tcp.completed),
              static_cast<long long>(tcp.errors),
              static_cast<long long>(fes.malformed), tcp.throughput_rps,
              tcp.p50_us, tcp.p99_us);

  // ---- E. chaos: a fresh supervised fleet with weight bit-flips armed on
  // one replica of the two-replica hardened group. Suspect traffic lands on
  // that group; the faulted replica must be quarantined and respawned with
  // zero client-visible errors while its sibling keeps serving.
  ChaosControl ctl;
  ctl.inject = [](snn::SpikingClassifier& m) {
    util::Rng frng(123);
    auto params = m.parameters();
    faults::inject_weight_bitflips(params, 1e-3, frng);
  };
  std::int64_t chaos_errors = 0;
  std::int64_t chaos_total = smoke ? 60 : 200;
  fleet::GroupStats chaos_group;
  {
    fleet::RouterConfig rc = fleet_config(cells);
    fleet::GroupConfig& hardened = rc.groups.back();
    hardened.replicas = 2;
    hardened.chaos_per_replica.push_back(make_hook(ctl));
    hardened.chaos_per_replica.push_back(serve::ChaosHook{});
    fleet::Router chaos_router(rc);
    const std::int64_t trigger = chaos_total * 15 / 100;
    const std::int64_t n = bundle.test.images.dim(0);
    fleet::FleetResult fr;
    for (std::int64_t i = 0; i < chaos_total; ++i) {
      if (i == trigger) ctl.enabled.store(true, std::memory_order_relaxed);
      const std::int64_t idx = i % n;
      const Tensor x = nn::slice_batch(bundle.test.images, idx, idx + 1);
      if (!chaos_router.infer(kSuspectTenant, x, serve::RequestOptions{},
                              fr))
        ++chaos_errors;
    }
    const fleet::RouterStats cs = chaos_router.stats();
    chaos_group = cs.groups.back();
    chaos_router.stop();
  }
  std::printf("chaos: %lld requests on 2-replica hardened group | "
              "quarantines %lld | respawns %lld | retries %lld | "
              "client errors %lld\n",
              static_cast<long long>(chaos_total),
              static_cast<long long>(chaos_group.quarantines),
              static_cast<long long>(chaos_group.respawns),
              static_cast<long long>(chaos_group.retries),
              static_cast<long long>(chaos_errors));

  // ---- gates.
  const bool gate_ensemble = !acc_gates_active ||
                             ensemble_acc > best_single;
  const bool gate_volume = load.offered >= spec.total &&
                           load.offered >= (smoke ? 20000 : 1000000);
  const bool gate_quota = load.quota_rejected >= 1;
  const bool gate_load_errors = load.errors == 0;
  const bool gate_alloc =
      alloc_route == 0 && alloc_quota == 0 && alloc_ensemble == 0;
  const bool gate_chaos = chaos_group.quarantines >= 1 &&
                          chaos_group.respawns >= 1 && chaos_errors == 0;
  const bool gate_wire = tcp.completed == tcp.offered && tcp.errors == 0 &&
                         fes.malformed == 0;

  // ---- JSON.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_fleet: cannot open %s for writing\n",
                 out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fleet\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"threads\": %zu,\n", util::ThreadPool::global().size());
  std::fprintf(f, "  \"data\": \"%s\",\n", bundle.source());
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t g = 0; g < cells.size(); ++g)
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"role\": \"%s\", \"v_th\": %.2f, "
                 "\"time_steps\": %lld, \"clean_accuracy\": %.4f}%s\n",
                 cells[g].plan.name, to_string(cells[g].plan.role),
                 cells[g].plan.v_th,
                 static_cast<long long>(cells[g].plan.time_steps),
                 cells[g].clean_accuracy,
                 g + 1 < cells.size() ? "," : "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"adversarial\": {\"epsilon\": %.2f, \"pgd_steps\": %lld, "
               "\"samples\": %lld,\n",
               eps, static_cast<long long>(pgd_steps),
               static_cast<long long>(adv_n));
  std::fprintf(f, "    \"transfer_matrix\": [\n");
  for (std::size_t g = 0; g < cells.size(); ++g)
    std::fprintf(f, "      [%.4f, %.4f, %.4f]%s\n", matrix[g][0],
                 matrix[g][1], matrix[g][2],
                 g + 1 < cells.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"single_cell\": [%.4f, %.4f, %.4f],\n"
               "    \"best_single\": %.4f, \"ensemble\": %.4f, "
               "\"ensemble_ties\": %lld},\n",
               single_cell[0], single_cell[1], single_cell[2], best_single,
               ensemble_acc, static_cast<long long>(ens_ties));
  std::fprintf(f,
               "  \"load\": {\"offered\": %lld, \"completed\": %lld, "
               "\"shed\": %lld, \"quota_rejected\": %lld, \"errors\": %lld, "
               "\"truncated\": %lld, \"wall_s\": %.3f, \"offered_rps\": "
               "%.1f, \"throughput_rps\": %.1f, \"p50_us\": %.1f, "
               "\"p95_us\": %.1f, \"p99_us\": %.1f,\n",
               static_cast<long long>(load.offered),
               static_cast<long long>(load.completed),
               static_cast<long long>(load.shed),
               static_cast<long long>(load.quota_rejected),
               static_cast<long long>(load.errors),
               static_cast<long long>(load.truncated), load.wall_s,
               load.offered_rps, load.throughput_rps, load.p50_us,
               load.p95_us, load.p99_us);
  std::fprintf(f, "    \"groups\": [\n");
  for (std::size_t g = 0; g < post_load.groups.size(); ++g) {
    const fleet::GroupStats& gs = post_load.groups[g];
    const std::int64_t done =
        gs.completed - pre_load.groups[g].completed;
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"completed\": %lld, \"shed\": "
                 "%lld, \"truncated\": %lld, \"rps\": %.1f}%s\n",
                 gs.name.c_str(), static_cast<long long>(done),
                 static_cast<long long>(gs.shed),
                 static_cast<long long>(gs.truncated),
                 load.wall_s > 0
                     ? static_cast<double>(done) / load.wall_s
                     : 0.0,
                 g + 1 < post_load.groups.size() ? "," : "");
  }
  std::fprintf(f, "    ]},\n");
  std::fprintf(f,
               "  \"steady_state_allocs\": {\"trusted\": %lld, "
               "\"quota_reject\": %lld, \"ensemble\": %lld},\n",
               static_cast<long long>(alloc_route),
               static_cast<long long>(alloc_quota),
               static_cast<long long>(alloc_ensemble));
  std::fprintf(f,
               "  \"tcp\": {\"offered\": %lld, \"completed\": %lld, "
               "\"errors\": %lld, \"malformed\": %lld, \"shed\": %lld, "
               "\"throughput_rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": "
               "%.1f},\n",
               static_cast<long long>(tcp.offered),
               static_cast<long long>(tcp.completed),
               static_cast<long long>(tcp.errors),
               static_cast<long long>(fes.malformed),
               static_cast<long long>(fes.shed), tcp.throughput_rps,
               tcp.p50_us, tcp.p99_us);
  std::fprintf(f,
               "  \"chaos\": {\"group\": \"%s\", \"replicas\": %lld, "
               "\"requests\": %lld, \"quarantines\": %lld, \"respawns\": "
               "%lld, \"retries\": %lld, \"client_errors\": %lld},\n",
               chaos_group.name.c_str(),
               static_cast<long long>(chaos_group.replicas),
               static_cast<long long>(chaos_total),
               static_cast<long long>(chaos_group.quarantines),
               static_cast<long long>(chaos_group.respawns),
               static_cast<long long>(chaos_group.retries),
               static_cast<long long>(chaos_errors));
  std::fprintf(f,
               "  \"gates\": {\"ensemble_beats_best_single\": %s, "
               "\"load_volume\": %s, \"quota_enforced\": %s, "
               "\"zero_load_errors\": %s, \"zero_alloc\": %s, "
               "\"chaos_recovery\": %s, \"wire_clean\": %s}\n",
               gate_ensemble ? "true" : "false",
               gate_volume ? "true" : "false",
               gate_quota ? "true" : "false",
               gate_load_errors ? "true" : "false",
               gate_alloc ? "true" : "false",
               gate_chaos ? "true" : "false",
               gate_wire ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  bool ok = true;
  const auto fail = [&ok](const char* what) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ok = false;
  };
  if (!gate_ensemble)
    fail("ensemble vote did not beat the best single cell under mixed "
         "white-box PGD");
  if (!gate_volume) fail("offered request volume below target");
  if (!gate_quota) fail("token-bucket quota never rejected a request");
  if (!gate_load_errors) fail("mixed-tenant load saw client-visible errors");
  if (!gate_alloc)
    fail("a steady-state routing path allocated (expected 0)");
  if (!gate_chaos)
    fail("chaos-armed replica was not quarantined+respawned error-free");
  if (!gate_wire) fail("TCP loopback run was not clean");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-threaded like the other serving benches: inference runs inline
  // on submitter/executor threads, and the box the numbers are recorded on
  // has one core anyway.
  setenv("SNNSEC_THREADS", "1", /*overwrite=*/0);
  return run(argc, argv);
}
