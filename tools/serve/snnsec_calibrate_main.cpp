// snnsec_calibrate: fit a clean-traffic ActivityEnvelope for a checkpoint.
//
// Replays clean training-split images through the same AnytimeRunner +
// SketchAccumulator pipeline serve::Server uses, fits the per-feature
// activity bands and atomically writes the envelope next to the model:
//
//   ./snnsec_calibrate --model digits.snnm --out digits.envelope
//   ./snnsec_serve --model digits.snnm --envelope digits.envelope ...
//
// The envelope records the model's config_hash; snnsec_serve refuses (warn +
// detection off) to score a different model with it. When the checkpoint
// does not exist yet a small model is trained there first, so the pair of
// commands above is a self-contained smoke run.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "data/provider.hpp"
#include "nn/metrics.hpp"
#include "obs/envelope.hpp"
#include "obs/sketch.hpp"
#include "serve/model_cache.hpp"
#include "serve_common.hpp"
#include "snn/anytime.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace snnsec;

int run(int argc, char** argv) {
  util::ArgParser args("snnsec_calibrate",
                       "calibrate a clean-traffic activity envelope");
  auto& model_path = args.add_string("model", "serve_model.snnm",
                                     "checkpoint path (trained if missing)");
  auto& out_path = args.add_string(
      "out", "", "envelope output path; default <model>.envelope");
  auto& samples =
      args.add_int("samples", 256, "clean calibration samples (train split)");
  auto& buckets =
      args.add_int("buckets", obs::SketchAccumulator::kDefaultBuckets,
                   "membrane histogram buckets per layer");
  auto& train_n = args.add_int("train", 600, "fallback-training samples");
  auto& test_n = args.add_int("test", 200, "test-split samples");
  auto& image = args.add_int("image-size", 16, "input resolution");
  auto& time_steps =
      args.add_int("time-steps", 16, "time window T for fallback training");
  auto& v_th = args.add_double("vth", 1.0, "threshold for fallback training");
  auto& epochs = args.add_int("epochs", 2, "fallback-training epochs");
  args.parse(argc, argv);

  data::DataSpec dspec;
  dspec.train_n = train_n;
  dspec.test_n = test_n;
  dspec.image_size = image;
  const data::DataBundle bundle = data::load_digits(dspec);
  std::printf("data source: %s | train %s\n", bundle.source(),
              bundle.train.summary().c_str());

  if (!std::ifstream(model_path).good())
    tools::train_checkpoint(model_path, bundle, image, time_steps, v_th,
                            epochs);

  const auto artifact = serve::ModelCache::global().acquire(model_path);
  const auto model = artifact->make_replica();
  snn::AnytimeRunner runner(*model);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers(), static_cast<int>(buckets));
  runner.set_sketch(&acc);

  const std::int64_t train_total = bundle.train.images.dim(0);
  const std::int64_t n = std::min<std::int64_t>(samples, train_total);
  SNNSEC_CHECK(n >= 2, "snnsec_calibrate: need at least 2 samples, have "
                           << n);
  std::printf("calibrating on %lld clean samples (T=%lld, %d buckets)\n",
              static_cast<long long>(n),
              static_cast<long long>(runner.time_steps()),
              acc.buckets());

  util::Stopwatch watch;
  std::vector<obs::ActivitySketch> sketches(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const tensor::Tensor x = nn::slice_batch(bundle.train.images, i, i + 1);
    runner.run(x);
    acc.finalize(0, sketches[static_cast<std::size_t>(i)]);
  }

  obs::ActivityEnvelope envelope;
  envelope.fit(sketches, runner.sketch_layers(), acc.buckets(),
               artifact->config_hash());
  const std::string out =
      out_path.empty() ? model_path + ".envelope" : out_path;
  envelope.save(out);
  std::printf("wrote %s (%s) in %.3fs\n", out.c_str(),
              envelope.summary().c_str(), watch.seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
