// Supervisor: golden-state determinism, the overload governor, and the
// self-healing server loop — canary detection of chaos-injected faults,
// transparent retry of non-finite results, retry-budget exhaustion, input
// validation, and the watchdog on a stalled batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "faults/fault.hpp"
#include "nn/parameter.hpp"
#include "serve/model_cache.hpp"
#include "serve/server.hpp"
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
      (fs::temp_directory_path() / "snnsec_test_serve_supervisor.snnm")
          .string();
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

/// Inline supervised server with only the per-batch fast canary live: the
/// deep-canary timer and watchdog are off so every detection in these
/// tests is deterministic, driven by the test's own requests.
ServerConfig supervised_config() {
  ServerConfig cfg;
  cfg.model_path = checkpoint_path();
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_delay_us = 500;
  cfg.batcher.capacity = 16;
  cfg.supervisor.enabled = true;
  cfg.supervisor.canary_interval_ms = 0;
  cfg.supervisor.heartbeat_timeout_ms = 0;
  return cfg;
}

Tensor random_image(std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(Shape{1, 1, kImage, kImage});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

/// Overwrite the classifier head's bias with +inf. Deliberately +inf and
/// not NaN: li_step folds the previous step's synaptic current into the
/// membrane, so the t=0 readout trace is a clean 0 regardless of the bias,
/// and the running-max decode's strictly-greater compare (false for any
/// NaN operand) latches that finite 0 forever — a NaN bias never reaches
/// the logits. +inf wins the compare and propagates.
void poison_head_bias(snn::SpikingClassifier& model) {
  nn::Parameter* bias = model.parameters().back();
  float* v = bias->value.data();
  for (std::int64_t i = 0; i < bias->value.numel(); ++i)
    v[i] = std::numeric_limits<float>::infinity();
}

TEST(SupervisorTest, GoldenStateIsDeterministic) {
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  SupervisorConfig cfg;
  cfg.enabled = true;
  Supervisor a(cfg, *artifact);
  Supervisor b(cfg, *artifact);
  // Every server supervising a given checkpoint derives the same probe and
  // golden state, so canary verdicts agree across processes.
  EXPECT_EQ(a.golden_weights_digest(), b.golden_weights_digest());
  ASSERT_EQ(a.probe().numel(), b.probe().numel());
  ASSERT_EQ(a.golden_logits().numel(), b.golden_logits().numel());
  for (std::int64_t i = 0; i < a.golden_logits().numel(); ++i)
    EXPECT_EQ(a.golden_logits().data()[i], b.golden_logits().data()[i]);
  EXPECT_TRUE(a.logits_ok(b.golden_logits()));
}

TEST(SupervisorTest, LogitsCheckIsNanSafe) {
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  SupervisorConfig cfg;
  cfg.enabled = true;
  cfg.canary_tolerance = 1e30;  // any finite divergence passes...
  Supervisor sup(cfg, *artifact);
  Tensor bad(Shape{sup.golden_logits().numel()});
  std::copy(sup.golden_logits().data(),
            sup.golden_logits().data() + sup.golden_logits().numel(),
            bad.data());
  EXPECT_TRUE(sup.logits_ok(bad));
  bad.data()[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(sup.logits_ok(bad)) << "...but a NaN must fail at any tol";
  bad.data()[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(sup.logits_ok(bad));
}

TEST(SupervisorTest, WeightsDigestDetectsSingleFloatChange) {
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  auto replica = artifact->make_replica();
  const auto params = replica->parameters();
  const std::uint64_t clean = Supervisor::weights_digest(params);
  params[0]->value.data()[0] += 1.0f;
  EXPECT_NE(Supervisor::weights_digest(params), clean);
}

TEST(SupervisorTest, GovernorRampsToFloorUnderPressure) {
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  SupervisorConfig cfg;
  cfg.enabled = true;
  cfg.governor_floor_steps = 3;
  Supervisor sup(cfg, *artifact);
  EXPECT_EQ(sup.floor_steps(), 3);
  // Full window at/below the low watermark, the floor at/above the high
  // watermark, monotone non-increasing in between.
  EXPECT_EQ(sup.governed_steps(0, 64), kT);
  EXPECT_EQ(sup.governed_steps(16, 64), kT);  // exactly the low watermark
  EXPECT_EQ(sup.governed_steps(48, 64), 3);   // exactly the high watermark
  EXPECT_EQ(sup.governed_steps(64, 64), 3);
  std::int64_t prev = kT;
  for (std::int64_t depth = 0; depth <= 64; ++depth) {
    const std::int64_t s = sup.governed_steps(depth, 64);
    EXPECT_LE(s, prev) << "depth " << depth;
    EXPECT_GE(s, 3);
    EXPECT_LE(s, kT);
    prev = s;
  }

  SupervisorConfig off = cfg;
  off.governor = false;
  Supervisor ungoverned(off, *artifact);
  EXPECT_EQ(ungoverned.governed_steps(64, 64), kT);
}

TEST(SupervisedServerTest, FastCanaryCatchesWeightCorruption) {
  ServerConfig cfg = supervised_config();
  std::atomic<bool> armed{true};
  cfg.chaos_on_batch = [&](const ChaosContext& ctx) {
    if (!armed.exchange(false)) return;
    ctx.model->parameters()[0]->value.data()[0] += 1.0f;
  };
  Server server(cfg);
  auto reference = snn::load_spiking_lenet(checkpoint_path());

  // Request 1 rides the corrupted replica: the logits are finite (just
  // wrong), so it is delivered — detection latency is one batch by design.
  InferResult r;
  ASSERT_TRUE(server.infer(random_image(201), RequestOptions{}, r));

  // Request 2: the weights digest diverges in maintain() before the next
  // batch forms, the replica is quarantined and respawned from the pristine
  // artifact, and results are bit-identical to the reference again.
  const Tensor x = random_image(202);
  const Tensor want = reference.model->logits(x);
  ASSERT_TRUE(server.infer(x, RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  EXPECT_EQ(r.attempts, 1);
  for (std::int64_t k = 0; k < want.numel(); ++k)
    EXPECT_EQ(r.scores[static_cast<std::size_t>(k)], want.data()[k]);

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.canary_failures, 1);
  EXPECT_GE(stats.quarantines, 1);
  EXPECT_EQ(stats.respawns, stats.quarantines)
      << "every quarantined replica must be respawned";
  EXPECT_EQ(stats.errors, 0);
}

TEST(SupervisedServerTest, NonFiniteLogitsRetriedTransparently) {
  ServerConfig cfg = supervised_config();
  std::atomic<bool> armed{true};
  cfg.chaos_on_batch = [&](const ChaosContext& ctx) {
    if (!armed.exchange(false)) return;
    poison_head_bias(*ctx.model);
  };
  Server server(cfg);
  auto reference = snn::load_spiking_lenet(checkpoint_path());

  // The poisoned attempt produces +inf logits; finalize refuses to deliver
  // them, quarantines the replica and re-enqueues the request, which the
  // healed replica answers — the caller sees one OK result, bit-identical
  // to the clean model, that merely cost two attempts.
  const Tensor x = random_image(301);
  const Tensor want = reference.model->logits(x);
  InferResult r;
  ASSERT_TRUE(server.infer(x, RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  EXPECT_GE(r.attempts, 2);
  for (std::int64_t k = 0; k < want.numel(); ++k)
    EXPECT_EQ(r.scores[static_cast<std::size_t>(k)], want.data()[k]);

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.retries, 1);
  EXPECT_GE(stats.quarantines, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.completed, 1);
}

TEST(SupervisedServerTest, ArmedSpikeFaultQuarantinedAndCleared) {
  ServerConfig cfg = supervised_config();
  cfg.allow_faults = true;  // chaos mode: runners replay armed faults
  std::atomic<bool> armed{true};
  cfg.chaos_on_batch = [&](const ChaosContext& ctx) {
    if (!armed.exchange(false)) return;
    faults::FaultSpec spec;
    spec.kind = faults::FaultKind::kSpikeDrop;
    spec.rate = 0.5;
    spec.seed = 9;
    faults::arm_fault(*ctx.model, spec);
  };
  Server server(cfg);
  auto reference = snn::load_spiking_lenet(checkpoint_path());

  InferResult r;
  ASSERT_TRUE(server.infer(random_image(351), RequestOptions{}, r));

  // The fast canary's armed-fault scan quarantines the replica; the
  // respawned one carries no fault and matches the reference bitwise.
  const Tensor x = random_image(352);
  const Tensor want = reference.model->logits(x);
  ASSERT_TRUE(server.infer(x, RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  for (std::int64_t k = 0; k < want.numel(); ++k)
    EXPECT_EQ(r.scores[static_cast<std::size_t>(k)], want.data()[k]);

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.quarantines, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.errors, 0);
}

TEST(SupervisedServerTest, PersistentFaultExhaustsRetryBudget) {
  ServerConfig cfg = supervised_config();
  cfg.supervisor.retry.max_attempts = 2;
  // No one-shot flag: the fault re-poisons every freshly healed replica,
  // so no attempt can ever succeed.
  cfg.chaos_on_batch = [](const ChaosContext& ctx) {
    poison_head_bias(*ctx.model);
  };
  Server server(cfg);

  InferResult r;
  EXPECT_FALSE(server.infer(random_image(401), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kError);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.error.find("non-finite"), std::string::npos) << r.error;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.retries, 1) << "attempt 2 fails terminally, no re-enqueue";
  EXPECT_GE(stats.quarantines, 2);
  EXPECT_EQ(stats.completed, 0);
}

TEST(ServerValidationTest, NegativeFlagThresholdRejectedAtConstruction) {
  ServerConfig cfg = supervised_config();
  cfg.supervisor.enabled = false;
  cfg.flag_threshold = -1.0;
  EXPECT_THROW(Server{cfg}, util::Error);
  cfg.flag_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Server{cfg}, util::Error);
  cfg.flag_threshold = 0.0;  // boundary: zero is a valid (hair-trigger) value
  Server ok(cfg);
}

TEST(ServerValidationTest, NonFinitePixelsRejectedBeforeEncoding) {
  ServerConfig cfg = supervised_config();
  cfg.supervisor.enabled = false;
  Server server(cfg);

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Tensor x = random_image(451);
    x.data()[5] = bad;
    InferResult r;
    EXPECT_FALSE(server.infer(x, RequestOptions{}, r));
    EXPECT_EQ(r.status, ResultStatus::kError);
    EXPECT_NE(r.error.find("non-finite"), std::string::npos) << r.error;
  }
  EXPECT_EQ(server.stats().errors, 3);
  EXPECT_EQ(server.stats().completed, 0);

  // A clean image on the same server still serves normally.
  InferResult r;
  ASSERT_TRUE(server.infer(random_image(452), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
}

TEST(ServerValidationTest, UnsupervisedServerDeliversCorruptedLogits) {
  // The supervision-off contract the chaos bench's OFF arm measures: no
  // canaries, no retry — a fault's damage goes straight to the caller.
  ServerConfig cfg = supervised_config();
  cfg.supervisor.enabled = false;
  std::atomic<bool> armed{true};
  cfg.chaos_on_batch = [&](const ChaosContext& ctx) {
    if (!armed.exchange(false)) return;
    poison_head_bias(*ctx.model);
  };
  Server server(cfg);

  InferResult r;
  ASSERT_TRUE(server.infer(random_image(501), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  EXPECT_EQ(r.attempts, 1);
  bool any_nonfinite = false;
  for (const float s : r.scores)
    if (!std::isfinite(s)) any_nonfinite = true;
  EXPECT_TRUE(any_nonfinite) << "+inf logits must pass through unsupervised";
  EXPECT_EQ(server.stats().quarantines, 0);
  EXPECT_EQ(server.stats().retries, 0);
}

TEST(SupervisedServerTest, WatchdogQuarantinesStalledInlineBatch) {
  ServerConfig cfg = supervised_config();
  cfg.supervisor.heartbeat_timeout_ms = 50;
  std::atomic<bool> stall{true};
  cfg.chaos_on_batch = [&](const ChaosContext&) {
    if (stall.exchange(false))
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  auto reference = snn::load_spiking_lenet(checkpoint_path());
  const Tensor x1 = random_image(601);
  const Tensor x2 = random_image(602);
  const Tensor want1 = reference.model->logits(x1);
  const Tensor want2 = reference.model->logits(x2);
  Server server(cfg);

  // The first batch wedges for 300ms with a 50ms heartbeat budget. The
  // batch runs on this thread, so the watchdog cannot take it away: it
  // quarantines the replica and the stalled batch still answers, once.
  InferResult r;
  ASSERT_TRUE(server.infer(x1, RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  EXPECT_EQ(r.attempts, 1);
  for (std::int64_t k = 0; k < want1.numel(); ++k)
    EXPECT_EQ(r.scores[static_cast<std::size_t>(k)], want1.data()[k]);

  // The replica is respawned before the next batch, which serves normally.
  ASSERT_TRUE(server.infer(x2, RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kOk);
  for (std::int64_t k = 0; k < want2.numel(); ++k)
    EXPECT_EQ(r.scores[static_cast<std::size_t>(k)], want2.data()[k]);
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.watchdog_trips, 1);
  EXPECT_GE(stats.quarantines, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.completed, 2);
}

}  // namespace
}  // namespace snnsec::serve
