// hostile_batch: four client threads in lockstep against an in-process
// Router with max_batch = 4. The hostile tenant gets an ensemble vote over
// all three cells on the PGD-perturbed set, so every request steps batch-4
// micro-batches through 16 + 24 + 32 = 72 time steps at adversarial firing
// rates, wakes the batcher three times, and ends in the vote. (The router
// caps the low cell at its 14/16-step cliff budget here too, so a request
// runs 14 + 24 + 32 = 70 steps.)
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "serve/model_cache.hpp"
#include "snn/anytime.hpp"

namespace perfbench {

namespace sn = snnsec;

namespace {

constexpr int kClients = 4;
constexpr std::int64_t kRoundsPerWindow = 3;
constexpr std::int64_t kWindowRequests = kClients * kRoundsPerWindow;
constexpr int kSetupReps = 40;
/// Batches flush on size only: four lockstep clients always fill a batch,
/// so this delay is never reached (a timed wait would not scale with the
/// drift correction).
constexpr std::int64_t kNoFlushDelayUs = 60'000'000;

/// kClients persistent threads that run one job each, together, per call.
class Lockstep {
 public:
  Lockstep() {
    for (int c = 0; c < kClients; ++c)
      threads_.emplace_back([this, c] { loop(c); });
  }
  ~Lockstep() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Lockstep(const Lockstep&) = delete;
  Lockstep& operator=(const Lockstep&) = delete;

  /// Run job(client) on every client thread; returns when all are done.
  void run(const std::function<void(int)>& job) {
    std::unique_lock<std::mutex> lk(m_);
    job_ = &job;
    pending_ = kClients;
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    job_ = nullptr;
  }

 private:
  void loop(int c) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(c);
      std::lock_guard<std::mutex> lk(m_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// What one client saw for one request.
struct Seen {
  bool ok = false;
  std::int64_t pred = -1;
  bool full_batches = false;  ///< every cell ran it in a batch of 4
  double queue_us = 0;        ///< summed over the cells
  double steps = 0;           ///< summed over the cells
};

/// Steps the router runs on cell `c` for a request without its own budget:
/// the low-latency cell stops at the 7T/8 cliff, the others run T.
std::int64_t cell_steps(int c) {
  const std::int64_t t = kCells[c].time_steps;
  return kCells[c].role == sn::fleet::GroupRole::kLowLatency ? t - t / 8 : t;
}

}  // namespace

int run_hostile_batch(const Args& args, const Prepared& prep, Report& report) {
  const std::int64_t n = prep.hostile_x.dim(0);
  const int classes = static_cast<int>(n / kWindowRequests);
  const std::vector<std::int64_t> order = permutation(n, args.seed);
  std::vector<Tensor> singles;
  for (std::int64_t i = 0; i < n; ++i)
    singles.push_back(gather_rows(prep.hostile_x, {i}));

  // The benchmark's own one-shot evaluation: each cell's window on a
  // replica (the low cell at its cliff budget), then a majority vote with
  // ties to the highest-Vth cell.
  std::vector<std::int64_t> expected(static_cast<std::size_t>(n));
  {
    std::vector<std::int64_t> pred[kNumCells];
    for (int c = 0; c < kNumCells; ++c) {
      auto model = sn::serve::ModelCache::global()
                       .acquire(prep.checkpoint[c])
                       ->make_replica();
      sn::snn::AnytimeRunner runner(*model);
      for (std::int64_t i = 0; i < n; ++i) {
        const Tensor& lg = runner.run(singles[static_cast<std::size_t>(i)],
                                      cell_steps(c));
        pred[c].push_back(argmax(lg.data(), lg.dim(1)));
      }
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const std::int64_t a = pred[0][i], b = pred[1][i], h = pred[2][i];
      expected[i] = (a == b || a == h) ? a : (b == h ? b : h);
    }
  }

  Host host;
  Lockstep clients;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<unsigned char> correct(static_cast<std::size_t>(n), 0);
  std::vector<Seen> seen(static_cast<std::size_t>(kWindowRequests));
  sn::fleet::FleetResult results[kClients];

  const auto request = [&](sn::fleet::Router& router, int c, std::int64_t img,
                           Seen& out) {
    sn::fleet::FleetResult& fr = results[c];
    out.ok = router.infer(kHostileTenant,
                          singles[static_cast<std::size_t>(img)], {}, fr);
    out.pred = fr.result.pred;
    out.full_batches = fr.ensemble;
    out.queue_us = 0;
    out.steps = 0;
    for (std::size_t g = 0; g < fr.cell_results.size(); ++g) {
      out.full_batches = out.full_batches && fr.cell_ok[g] != 0 &&
                         fr.cell_results[g].batch_size == kClients;
      out.queue_us += static_cast<double>(fr.cell_results[g].queue_us);
      out.steps += static_cast<double>(fr.cell_results[g].steps_used);
    }
  };
  const auto check = [&](std::int64_t img, const Seen& s) {
    ++attempted;
    if (!s.ok) {
      ++failed;
      return;
    }
    const auto i = static_cast<std::size_t>(img);
    report.check(s.pred == expected[i],
                 "ensemble reply differs from the one-shot vote");
    report.check(s.full_batches, "a hostile batch did not hold 4 rows");
    correct[i] = s.pred == prep.hostile_y[i];
  };

  // Request k of a window: round k / kClients on client k % kClients.
  const auto window = [&](sn::fleet::Router& router, int cls,
                          std::vector<double>& lat) {
    clients.run([&](int c) {
      for (std::int64_t r = 0; r < kRoundsPerWindow; ++r) {
        const std::int64_t k = r * kClients + c;
        const auto t0 = Clock::now();
        request(router, c, order[cls * kWindowRequests + k],
                seen[static_cast<std::size_t>(k)]);
        lat[static_cast<std::size_t>(k)] = seconds_between(t0, Clock::now());
      }
    });
  };
  const auto after = [&](int cls) {
    for (std::int64_t k = 0; k < kWindowRequests; ++k)
      check(order[cls * kWindowRequests + k],
            seen[static_cast<std::size_t>(k)]);
  };
  const auto make_router = [&] {
    return std::make_unique<sn::fleet::Router>(
        router_config(prep, kClients, kNoFlushDelayUs));
  };
  const auto warm = [&](sn::fleet::Router& router) {
    std::vector<double> lat(static_cast<std::size_t>(kWindowRequests));
    for (int c = 0; c < classes; ++c) {
      window(router, c, lat);
      after(c);
    }
  };

  // ---- set-up: checkpoints -> Router -> the first lockstep round of
  // replies.
  std::unique_ptr<sn::fleet::Router> standing;
  const auto up = [&] {
    sn::serve::ModelCache::global().clear();
    standing = make_router();
    clients.run([&](int c) {
      request(*standing, c, order[c], seen[static_cast<std::size_t>(c)]);
    });
  };
  const auto down = [&] {
    for (int c = 0; c < kClients; ++c)
      check(order[c], seen[static_cast<std::size_t>(c)]);
    standing.reset();
  };

  if (!args.trace) {
    const std::vector<Window> setup =
        measure_setup(host, kSetupReps, up, down);
    auto router = make_router();
    warm(*router);
    const LoopTimes loop = timed_loop(
        host, args.seconds, classes, kWindowRequests,
        [&](int cls, std::vector<double>& lat) { window(*router, cls, lat); },
        after);
    double acc = 0;
    for (unsigned char c : correct) acc += c;
    report_end_to_end(report, setup, loop, acc / static_cast<double>(n),
                      attempted, failed, host);
    report.print_result(attempted, failed);
    return 0;
  }

  // ---- traced run.
  LayerFigures f;
  SpanLog spans;
  // The build layer: the Router constructor (torn down untimed).
  std::unique_ptr<sn::fleet::Router> built;
  measure_setup_layers(prep, spans, [&] { built = make_router(); }, f);
  built.reset();

  auto router = make_router();
  warm(*router);
  Counters counters;
  const std::int64_t attempted_before = attempted;
  // Traced segments: one span per client request. SpanLog is
  // single-threaded, so each client records into its own log.
  SpanLog client_spans[kClients];
  std::vector<double> queue_us, steps;
  f.trace_ops_ratio = traced_ops_ratio(
      host, 2 * args.seconds / 3, classes, kWindowRequests,
      [&](int cls, std::vector<double>& lat) { window(*router, cls, lat); },
      [&](int cls, std::vector<double>& lat) {
        clients.run([&](int c) {
          for (std::int64_t r = 0; r < kRoundsPerWindow; ++r) {
            const std::int64_t k = r * kClients + c;
            const std::int64_t img = order[cls * kWindowRequests + k];
            const std::int64_t sp = client_spans[c].begin(
                "router.infer", -1, static_cast<std::uint64_t>(img));
            request(*router, c, img, seen[static_cast<std::size_t>(k)]);
            client_spans[c].end(sp);
            lat[static_cast<std::size_t>(k)] = client_spans[c].seconds(sp);
          }
        });
      },
      [&](int cls) {
        for (const Seen& s : seen) {
          queue_us.push_back(s.queue_us);
          steps.push_back(s.steps);
        }
        after(cls);
      });
  f.take_counters(counters, attempted - attempted_before);
  f.queue_us = median(queue_us);
  f.batch_size = kClients;  // checked on every reply above
  f.steps_per_req = median(steps);

  // Replays in lockstep, one round of 4 requests at a time: the ensemble
  // through the Router, then the same round straight into each cell's
  // Server, then each cell's runner at batch 4 outside the server. All of
  // it runs on one core, so a round's time is the work of its 4 requests
  // and the per-request self time of a layer is the round difference / 4.
  constexpr int kPasses = 3;
  std::vector<double> router_s, server_s;
  std::vector<double> any_s;
  std::vector<Tensor> batches;
  std::vector<std::unique_ptr<AnytimeProbe>> probes;
  for (int g = 0; g < kNumCells; ++g)
    probes.push_back(
        std::make_unique<AnytimeProbe>(prep.checkpoint[g], cell_steps(g)));
  const std::int64_t rounds = n / kClients;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::int64_t r = 0; r < rounds; ++r) {
      std::vector<std::int64_t> imgs(order.begin() + r * kClients,
                                     order.begin() + (r + 1) * kClients);
      const auto id = static_cast<std::uint64_t>(imgs[0]);
      const std::int64_t root = spans.begin("replay.round", -1, id);
      int fails[kClients] = {};
      std::int64_t sp = spans.begin("router.infer", root, id);
      clients.run([&](int c) {
        Seen s;
        request(*router, c, imgs[static_cast<std::size_t>(c)], s);
        fails[c] += s.ok ? 0 : 1;
      });
      spans.end(sp);
      router_s.push_back(spans.seconds(sp));
      // Each client walks the cells in the router's order, so both rounds
      // pay the same lockstep synchronisation.
      sp = spans.begin("serve.infer", root, id);
      clients.run([&](int c) {
        sn::serve::InferResult ir;
        const Tensor& x = singles[static_cast<std::size_t>(
            imgs[static_cast<std::size_t>(c)])];
        for (int g = 0; g < kNumCells; ++g) {
          sn::serve::RequestOptions opt;
          opt.max_steps = cell_steps(g);
          fails[c] += router->replica(g, 0).infer(x, opt, ir) ? 0 : 1;
        }
      });
      spans.end(sp);
      server_s.push_back(spans.seconds(sp));
      const Tensor batch = gather_rows(prep.hostile_x, imgs);
      double cells_s = 0;
      for (auto& probe : probes) cells_s += probe->run(batch, spans, root, id);
      any_s.push_back(cells_s);
      spans.end(root);
      for (int c = 0; c < kClients; ++c) {
        attempted += 1 + kNumCells;
        failed += fails[c];
      }
      if (pass == 0) batches.push_back(batch);
    }
  }
  for (int g = 0; g < kNumCells; ++g) {
    f.step_us[g] = probes[static_cast<std::size_t>(g)]->step_us();
    f.spiking_layers = probes[static_cast<std::size_t>(g)]->count_spikes(
        batches, f.spikes_per_step[g]);
  }
  std::vector<double> router_self, serve_self;
  for (std::size_t k = 0; k < router_s.size(); ++k) {
    router_self.push_back((router_s[k] - server_s[k]) * 1e6 / kClients);
    serve_self.push_back((server_s[k] - any_s[k]) * 1e6 / kClients);
  }
  f.router_self_us = median(router_self);
  f.serve_self_us = median(serve_self);

  report_layers(report, f, host);
  write_spans(args, spans, report);
  for (int c = 0; c < kClients; ++c) {
    Args per = args;
    per.workload = args.workload + "-client" + std::to_string(c);
    write_spans(per, client_spans[c], report);
  }
  report.print_result(attempted, failed);
  return 0;
}

}  // namespace perfbench
