// Server online detection: score annotation, observe/reject policy
// semantics, envelope validation at startup and detect metrics.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "obs/envelope.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "serve/model_cache.hpp"
#include "serve/server.hpp"
#include "snn/anytime.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snnsec::serve {
namespace {

namespace fs = std::filesystem;
using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kImage = 8;
constexpr std::int64_t kT = 6;

std::string checkpoint_path() {
  static const std::string path =
      (fs::temp_directory_path() / "snnsec_test_serve_detect.snnm").string();
  static bool written = false;
  if (!written) {
    nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
    arch.image_size = kImage;
    snn::SnnConfig cfg;
    cfg.v_th = 1.1;
    cfg.time_steps = kT;
    util::Rng rng(42);
    auto model = snn::build_spiking_lenet(arch, cfg, rng);
    snn::save_spiking_lenet(path, *model, arch, cfg);
    written = true;
  }
  return path;
}

Tensor random_image(std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(Shape{1, 1, kImage, kImage});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

ServerConfig inline_config() {
  ServerConfig cfg;
  cfg.model_path = checkpoint_path();
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_delay_us = 500;
  cfg.batcher.capacity = 16;
  return cfg;
}

/// Envelope calibrated on the same clean traffic distribution the tests
/// probe with — clean requests score low.
std::shared_ptr<const obs::ActivityEnvelope> clean_envelope() {
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  const auto replica = artifact->make_replica();
  snn::AnytimeRunner runner(*replica);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers());
  runner.set_sketch(&acc);
  constexpr int kN = 32;
  std::vector<obs::ActivitySketch> sketches(kN);
  for (int i = 0; i < kN; ++i) {
    runner.run(random_image(1000 + static_cast<std::uint64_t>(i)));
    acc.finalize(0, sketches[static_cast<std::size_t>(i)]);
  }
  auto envelope = std::make_shared<obs::ActivityEnvelope>();
  envelope->fit(sketches, runner.sketch_layers(), acc.buckets(),
                artifact->config_hash());
  return envelope;
}

/// Envelope whose bands sit far from any real activity — every request
/// scores enormous, so the detector always fires.
std::shared_ptr<const obs::ActivityEnvelope> absurd_envelope() {
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  const auto replica = artifact->make_replica();
  snn::AnytimeRunner runner(*replica);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers());
  std::vector<obs::ActivitySketch> sketches(2);
  for (auto& s : sketches) {
    s.steps = kT;
    s.layers.resize(runner.sketch_layers().size());
    for (auto& l : s.layers) {
      l.firing_rate = 100.0;
      l.silent_fraction = 100.0;
      l.saturated_fraction = 100.0;
      l.v_mean = 100.0;
      l.hist_frac.assign(static_cast<std::size_t>(acc.buckets()), 100.0);
    }
  }
  auto envelope = std::make_shared<obs::ActivityEnvelope>();
  envelope->fit(sketches, runner.sketch_layers(), acc.buckets(),
                artifact->config_hash());
  return envelope;
}

TEST(ServeDetect, DetectionOffWithoutEnvelope) {
  Server server(inline_config());
  EXPECT_FALSE(server.detector_ready());
  InferResult r;
  ASSERT_TRUE(server.infer(random_image(5), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  EXPECT_EQ(r.anomaly_score, -1.0);
  EXPECT_FALSE(r.flagged);
}

TEST(ServeDetect, CleanTrafficIsScoredAndNotFlagged) {
  ServerConfig cfg = inline_config();
  cfg.envelope = clean_envelope();
  Server server(cfg);
  EXPECT_TRUE(server.detector_ready());

  InferResult r;
  for (std::uint64_t seed = 1000; seed < 1008; ++seed) {
    ASSERT_TRUE(server.infer(random_image(seed), RequestOptions{}, r));
    EXPECT_EQ(r.status, ResultStatus::kOk);
    EXPECT_GE(r.anomaly_score, 0.0) << "armed server must score requests";
    EXPECT_LT(r.anomaly_score, cfg.flag_threshold) << "seed " << seed;
    EXPECT_FALSE(r.flagged);
  }
  EXPECT_EQ(server.stats().flagged, 0);
}

TEST(ServeDetect, ScoresAreBitIdenticalAcrossBatchCompositions) {
  // The request's anomaly score rides the sketch bit-identity contract:
  // the same image scores identically on repeat requests.
  ServerConfig cfg = inline_config();
  cfg.envelope = clean_envelope();
  Server server(cfg);
  const Tensor x = random_image(1003);
  InferResult a;
  InferResult b;
  ASSERT_TRUE(server.infer(x, RequestOptions{}, a));
  ASSERT_TRUE(server.infer(x, RequestOptions{}, b));
  EXPECT_EQ(a.anomaly_score, b.anomaly_score);
}

TEST(ServeDetect, ObservePolicyAnnotatesButCompletes) {
  ServerConfig cfg = inline_config();
  cfg.envelope = absurd_envelope();
  cfg.detect_policy = DetectPolicy::kObserve;
  Server server(cfg);

  InferResult r;
  ASSERT_TRUE(server.infer(random_image(7), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  EXPECT_TRUE(r.flagged);
  EXPECT_GE(r.anomaly_score, cfg.flag_threshold);
  EXPECT_GE(r.pred, 0) << "observe policy keeps the prediction";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.flagged, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServeDetect, RejectPolicyFlagsButKeepsPredictionForForensics) {
  ServerConfig cfg = inline_config();
  cfg.envelope = absurd_envelope();
  cfg.detect_policy = DetectPolicy::kReject;
  Server server(cfg);

  InferResult r;
  EXPECT_FALSE(server.infer(random_image(8), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kFlagged);
  EXPECT_TRUE(r.flagged);
  EXPECT_GE(r.anomaly_score, cfg.flag_threshold);
  EXPECT_GE(r.pred, 0) << "flagged results keep the prediction";
  EXPECT_FALSE(r.scores.empty());
  EXPECT_EQ(server.stats().flagged, 1);
}

TEST(ServeDetect, DetectMetricsAreEmitted) {
  obs::Registry::instance().set_enabled(true);
  ServerConfig cfg = inline_config();
  cfg.envelope = absurd_envelope();
  Server server(cfg);
  InferResult r;
  ASSERT_TRUE(server.infer(random_image(9), RequestOptions{}, r));

  bool saw_score = false;
  bool saw_flagged = false;
  bool saw_age = false;
  for (const auto& m : obs::Registry::instance().snapshot()) {
    if (m.name == "serve.detect.score") saw_score = true;
    if (m.name == "serve.detect.flagged") saw_flagged = true;
    if (m.name == "serve.detect.calibration_age_s") {
      saw_age = true;
      EXPECT_GE(m.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_score);
  EXPECT_TRUE(saw_flagged);
  EXPECT_TRUE(saw_age);
}

TEST(ServeDetect, ForeignEnvelopeFileDisablesDetection) {
  // An envelope calibrated for a different model (config_hash mismatch)
  // must not arm the detector — the server warns and serves undetected.
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  const auto replica = artifact->make_replica();
  snn::AnytimeRunner runner(*replica);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers());
  runner.set_sketch(&acc);
  std::vector<obs::ActivitySketch> sketches(2);
  runner.run(random_image(11));
  acc.finalize(0, sketches[0]);
  runner.run(random_image(12));
  acc.finalize(0, sketches[1]);
  obs::ActivityEnvelope foreign;
  foreign.fit(sketches, runner.sketch_layers(), acc.buckets(),
              artifact->config_hash() + 1);
  const std::string path =
      (fs::temp_directory_path() / "snnsec_test_foreign.envelope").string();
  foreign.save(path);

  ServerConfig cfg = inline_config();
  cfg.envelope_path = path;
  Server server(cfg);
  EXPECT_FALSE(server.detector_ready());
  InferResult r;
  ASSERT_TRUE(server.infer(random_image(13), RequestOptions{}, r));
  EXPECT_EQ(r.anomaly_score, -1.0);
}

TEST(ServeDetect, MismatchedEnvelopeGeometryRefusesToStart) {
  auto envelope = std::make_shared<obs::ActivityEnvelope>();
  std::vector<obs::ActivitySketch> sketches(2);
  for (auto& s : sketches) {
    s.steps = kT;
    s.layers.resize(1);
    s.layers[0].hist_frac.assign(8, 0.1);
  }
  envelope->fit(sketches, {{"lif0", 1.0}}, 8, 123);

  ServerConfig cfg = inline_config();
  cfg.envelope = envelope;  // one layer; the model has several
  EXPECT_THROW(Server{cfg}, util::Error);
}

}  // namespace
}  // namespace snnsec::serve
