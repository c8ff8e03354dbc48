// Serve demo: anytime inference as a latency/accuracy dial.
//
// Trains (or loads) a spiking LeNet checkpoint, stands up the src/serve
// runtime in inline mode, and serves the test split twice — once with the
// full time window T and once under a wall-clock latency budget that forces
// deadline truncation — then sweeps max_steps to print the whole
// accuracy-vs-truncation curve. This is the paper's structural parameter T
// acting as a run-time load-shedding knob: logits after t steps are
// bit-identical to a model built with window T' = t.
//
//   ./serve_demo [--train 600] [--test 200] [--time-steps 16] [--vth 1.0]
//                [--epochs 2] [--deadline-us 2000] [--model path.snnm]
#include <cstdio>
#include <fstream>
#include <vector>

#include "data/provider.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "serve/server.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

using namespace snnsec;

namespace {

struct ServeOutcome {
  double accuracy = 0.0;
  double mean_latency_us = 0.0;
  double mean_steps = 0.0;
  std::int64_t truncated = 0;
};

// Serve every test image through the runtime with the given per-request
// options and score the predictions against the labels.
ServeOutcome serve_split(serve::Server& server, const data::DataBundle& data,
                         const serve::RequestOptions& opt) {
  ServeOutcome out;
  serve::InferResult r;  // reused: steady state allocates nothing
  const std::int64_t n = data.test.images.dim(0);
  std::int64_t correct = 0;
  std::int64_t latency_sum = 0;
  std::int64_t steps_sum = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const tensor::Tensor x = nn::slice_batch(data.test.images, i, i + 1);
    if (!server.infer(x, opt, r)) continue;
    if (r.pred == data.test.labels[static_cast<std::size_t>(i)]) ++correct;
    latency_sum += r.latency_us;
    steps_sum += r.steps_used;
    if (r.truncated) ++out.truncated;
  }
  out.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  out.mean_latency_us =
      static_cast<double>(latency_sum) / static_cast<double>(n);
  out.mean_steps = static_cast<double>(steps_sum) / static_cast<double>(n);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("serve_demo",
                       "batched anytime SNN serving: accuracy vs deadline");
  auto& train_n = args.add_int("train", 600, "training samples");
  auto& test_n = args.add_int("test", 200, "test samples");
  auto& time_steps = args.add_int("time-steps", 16, "SNN time window T");
  auto& v_th = args.add_double("vth", 1.0, "LIF firing threshold");
  auto& epochs = args.add_int("epochs", 2, "training epochs");
  auto& image = args.add_int("image-size", 16, "input resolution");
  auto& deadline_us = args.add_int(
      "deadline-us", 2000, "per-request latency budget for the tight pass");
  auto& model_path = args.add_string(
      "model", "serve_demo_model.snnm", "checkpoint (reused when it exists)");
  args.parse(argc, argv);

  // 1. Data + checkpoint (train once, then reuse across runs).
  data::DataSpec dspec;
  dspec.train_n = train_n;
  dspec.test_n = test_n;
  dspec.image_size = image;
  const data::DataBundle bundle = data::load_digits(dspec);
  std::printf("data source: %s | test %s\n", bundle.source(),
              bundle.test.summary().c_str());

  if (!std::ifstream(model_path).good()) {
    nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
    arch.image_size = image;
    snn::SnnConfig cfg;
    cfg.v_th = v_th;
    cfg.time_steps = time_steps;
    util::Rng rng(util::master_seed());
    auto model = snn::build_spiking_lenet(arch, cfg, rng);
    nn::TrainConfig tcfg;
    tcfg.epochs = epochs;
    tcfg.lr = 4e-3;
    tcfg.verbose = true;
    util::Stopwatch watch;
    nn::Trainer(tcfg).fit(*model, bundle.train.images, bundle.train.labels);
    std::printf("trained in %s\n", watch.pretty().c_str());
    snn::save_spiking_lenet(model_path, *model, arch, cfg);
  }

  // 2. Inline server: submitting threads drive the micro-batches, which is
  //    deterministic and exactly what a latency-sensitive embedder wants.
  serve::ServerConfig scfg;
  scfg.model_path = model_path;
  scfg.batcher.max_batch = 8;
  scfg.batcher.max_delay_us = 200;
  serve::Server server(scfg);
  const std::int64_t t_window = server.time_steps();
  std::printf("serving %s | T=%lld | inline micro-batching\n",
              model_path.c_str(), static_cast<long long>(t_window));

  // 3. Full window vs deadline-truncated pass over the same split.
  const ServeOutcome full = serve_split(server, bundle, {});
  serve::RequestOptions tight;
  tight.deadline_us = deadline_us;
  const ServeOutcome budget = serve_split(server, bundle, tight);
  std::printf("full window   : accuracy %5.1f%% | mean steps %5.1f/%lld | "
              "mean latency %6.0fus\n",
              full.accuracy * 100, full.mean_steps,
              static_cast<long long>(t_window), full.mean_latency_us);
  std::printf("deadline %4lldus: accuracy %5.1f%% | mean steps %5.1f/%lld | "
              "mean latency %6.0fus | truncated %lld/%lld\n",
              static_cast<long long>(deadline_us), budget.accuracy * 100,
              budget.mean_steps, static_cast<long long>(t_window),
              budget.mean_latency_us, static_cast<long long>(budget.truncated),
              static_cast<long long>(test_n));

  // 4. Accuracy-vs-truncation curve: the anytime guarantee means row t here
  //    equals a model trained identically but built with T' = t.
  std::printf("\n%8s %10s %14s %12s\n", "steps", "accuracy", "mean_latency",
              "truncated");
  for (std::int64_t steps = 1; steps <= t_window;
       steps = steps < 4 ? steps + 1 : steps * 2) {
    serve::RequestOptions opt;
    opt.max_steps = steps;
    const ServeOutcome o = serve_split(server, bundle, opt);
    std::printf("%5lld/%-2lld %9.1f%% %12.0fus %12lld\n",
                static_cast<long long>(steps),
                static_cast<long long>(t_window), o.accuracy * 100,
                o.mean_latency_us, static_cast<long long>(o.truncated));
    if (steps < t_window && (steps < 4 ? steps + 1 : steps * 2) > t_window) {
      // Always include the exact full window as the last row.
      opt.max_steps = t_window;
      const ServeOutcome last = serve_split(server, bundle, opt);
      std::printf("%5lld/%-2lld %9.1f%% %12.0fus %12lld\n",
                  static_cast<long long>(t_window),
                  static_cast<long long>(t_window), last.accuracy * 100,
                  last.mean_latency_us,
                  static_cast<long long>(last.truncated));
    }
  }
  server.stop();
  return 0;
}
