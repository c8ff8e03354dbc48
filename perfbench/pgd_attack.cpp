// pgd_attack: the paper's Algorithm 1 inner loop. Single-thread white-box
// PGD with fixed steps, eps and batch against each cell in turn: a
// whole-window forward plus BPTT backward on dense GEMM, where the serving
// workloads step the same tensor and snn layers one time slab at a time.
// A kernel change that helps serving but hurts attacks and training shows
// here.
#include <cmath>
#include <memory>

#include "attacks/pgd.hpp"
#include "bench.hpp"
#include "serve/model_cache.hpp"
#include "snn/anytime.hpp"

namespace perfbench {

namespace sn = snnsec;

namespace {

constexpr std::int64_t kImages = 16;  // the first clean test images
constexpr std::int64_t kBatch = 2;
constexpr std::int64_t kSteps = 5;
constexpr double kEpsilon = 0.1;
constexpr int kSetupReps = 60;

sn::attack::PgdConfig pgd_config() {
  sn::attack::PgdConfig pc;
  pc.steps = kSteps;
  pc.rel_stepsize = 0.25;
  pc.seed = 99;
  return pc;
}

struct Models {
  std::unique_ptr<sn::snn::SpikingClassifier> cell[kNumCells];
};

Models load_models(const Prepared& prep) {
  Models m;
  for (int c = 0; c < kNumCells; ++c)
    m.cell[c] = sn::serve::ModelCache::global()
                    .acquire(prep.checkpoint[c])
                    ->make_replica();
  return m;
}

}  // namespace

int run_pgd_attack(const Args& args, const Prepared& prep, Report& report) {
  // Batches are fixed, so every seed attacks the same inputs with the same
  // random starts; the seed orders the batches within each cycle.
  const int classes = static_cast<int>(kImages / kBatch);
  const std::vector<std::int64_t> order = permutation(classes, args.seed);
  std::vector<Tensor> xs;
  std::vector<std::vector<std::int64_t>> ys;
  for (int k = 0; k < classes; ++k) {
    std::vector<std::int64_t> idx;
    for (std::int64_t i = 0; i < kBatch; ++i)
      idx.push_back(order[static_cast<std::size_t>(k)] * kBatch + i);
    xs.push_back(gather_rows(prep.clean_x, idx));
    std::vector<std::int64_t> y;
    for (std::int64_t i : idx) y.push_back(prep.clean_y[static_cast<std::size_t>(i)]);
    ys.push_back(y);
  }
  sn::attack::AttackBudget budget;
  budget.epsilon = kEpsilon;

  Host host;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Tensor adv[kNumCells];
  // Robust accuracy, 1 - Adv/|D| (Algorithm 1), per (class, cell) from the
  // first window of each class.
  std::vector<int> robust(static_cast<std::size_t>(classes * kNumCells), -1);

  Models models = load_models(prep);
  const auto window = [&](int cls, std::vector<double>& lat) {
    for (int c = 0; c < kNumCells; ++c) {
      const auto t0 = Clock::now();
      adv[c] = sn::attack::Pgd(pgd_config())
                   .perturb(*models.cell[c], xs[static_cast<std::size_t>(cls)],
                            ys[static_cast<std::size_t>(cls)], budget);
      lat[static_cast<std::size_t>(c)] = seconds_between(t0, Clock::now());
    }
  };
  const auto after = [&](int cls) {
    const Tensor& x = xs[static_cast<std::size_t>(cls)];
    for (int c = 0; c < kNumCells; ++c) {
      ++attempted;
      const Tensor& a = adv[c];
      bool in_box = a.numel() == x.numel();
      for (std::int64_t i = 0; in_box && i < a.numel(); ++i) {
        const float v = a.data()[i];
        in_box = std::isfinite(v) && v >= 0.0f && v <= 1.0f &&
                 std::fabs(v - x.data()[i]) <=
                     static_cast<float>(kEpsilon) + 1e-6f;
      }
      report.check(in_box, "a PGD output left the eps-ball or pixel box");
      if (!in_box) ++failed;
      int& slot = robust[static_cast<std::size_t>(cls * kNumCells + c)];
      if (slot >= 0) continue;
      const std::vector<std::int64_t> pred = models.cell[c]->predict(a);
      slot = 0;
      for (std::size_t i = 0; i < pred.size(); ++i)
        slot += pred[i] == ys[static_cast<std::size_t>(cls)][i] ? 1 : 0;
    }
  };
  const auto warm = [&] {
    std::vector<double> lat(kNumCells);
    for (int c = 0; c < classes; ++c) {
      window(c, lat);
      after(c);
    }
  };

  // ---- set-up: the three checkpoints -> models -> the first gradient.
  Models standing;
  Tensor first_grad;
  const auto up = [&] {
    sn::serve::ModelCache::global().clear();
    standing = load_models(prep);
    first_grad = standing.cell[0]->input_gradient(xs[0], ys[0], nullptr);
  };
  const auto down = [&] {
    report.check(first_grad.numel() == xs[0].numel(),
                 "first gradient has bad shape");
    standing = Models{};
  };

  if (!args.trace) {
    const std::vector<Window> setup =
        measure_setup(host, kSetupReps, up, down);
    warm();
    const LoopTimes loop =
        timed_loop(host, args.seconds, classes, kNumCells, window, after);
    double robust_sum = 0;
    for (int r : robust) robust_sum += r;
    report_end_to_end(report, setup, loop,
                      robust_sum / static_cast<double>(kImages * kNumCells),
                      attempted, failed, host);
    report.print_result(attempted, failed);
    return 0;
  }

  // ---- traced run.
  LayerFigures f;
  SpanLog spans;
  // No Router here: the build layer stamps the three model replicas.
  Models built;
  measure_setup_layers(prep, spans, [&] { built = load_models(prep); }, f);
  built = Models{};

  warm();
  Counters counters;
  const std::int64_t attempted_before = attempted;
  std::uint64_t call = 0;
  f.trace_ops_ratio = traced_ops_ratio(
      host, 2 * args.seconds / 3, classes, kNumCells, window,
      [&](int cls, std::vector<double>& lat) {
        const std::int64_t w = spans.begin("window", -1, call);
        for (int c = 0; c < kNumCells; ++c) {
          const std::int64_t sp = spans.begin("attack.pgd", w, call++);
          adv[c] = sn::attack::Pgd(pgd_config())
                       .perturb(*models.cell[c],
                                xs[static_cast<std::size_t>(cls)],
                                ys[static_cast<std::size_t>(cls)], budget);
          spans.end(sp);
          lat[static_cast<std::size_t>(c)] = spans.seconds(sp);
        }
        spans.end(w);
      },
      after);
  f.take_counters(counters, attempted - attempted_before);

  // Replays: the whole-window forward and the BPTT input gradient on each
  // class's batch, per cell.
  std::vector<double> fwd_s, grad_s;
  for (int cls = 0; cls < classes; ++cls) {
    for (int c = 0; c < kNumCells; ++c) {
      const std::int64_t root = spans.begin("replay", -1, call++);
      std::int64_t sp = spans.begin("nn.logits", root, call);
      const Tensor lg = models.cell[c]->logits(xs[static_cast<std::size_t>(cls)]);
      spans.end(sp);
      fwd_s.push_back(spans.seconds(sp));
      sp = spans.begin("nn.input_gradient", root, call);
      const Tensor g = models.cell[c]->input_gradient(
          xs[static_cast<std::size_t>(cls)], ys[static_cast<std::size_t>(cls)],
          nullptr);
      spans.end(sp);
      grad_s.push_back(spans.seconds(sp));
      spans.end(root);
      report.check(lg.dim(0) == kBatch && g.numel() == xs[0].numel(),
                   "replayed forward/gradient has bad shape");
    }
  }
  f.forward_ms = median(fwd_s) * 1e3;
  f.input_grad_ms = median(grad_s) * 1e3;
  {
    // Spiking-layer count, so the per-layer table has the same rows here.
    sn::snn::AnytimeRunner runner(*models.cell[0]);
    f.spiking_layers = static_cast<int>(runner.sketch_layers().size());
  }

  report_layers(report, f, host);
  write_spans(args, spans, report);
  report.print_result(attempted, failed);
  return 0;
}

}  // namespace perfbench
