// Server: end-to-end request path — bit-identical results vs the one-shot
// model, deadline/step truncation, shed + stop semantics, model cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

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
      (fs::temp_directory_path() / "snnsec_test_serve_server.snnm").string();
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

ServerConfig inline_config(std::int64_t max_batch = 4,
                           std::int64_t delay_us = 500) {
  ServerConfig cfg;
  cfg.model_path = checkpoint_path();
  cfg.batcher.max_batch = max_batch;
  cfg.batcher.max_delay_us = delay_us;
  cfg.batcher.capacity = 16;
  return cfg;
}

Tensor random_image(std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(Shape{1, 1, kImage, kImage});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

TEST(ModelCacheTest, SecondAcquireIsAHit) {
  ModelCache cache;
  const auto a = cache.acquire(checkpoint_path());
  const auto b = cache.acquire(checkpoint_path());
  EXPECT_EQ(a.get(), b.get()) << "same path must share one artifact";
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(a->config().time_steps, kT);
  EXPECT_NE(a->config_hash(), 0u);
}

TEST(ModelCacheTest, ReplicasAreIndependentAndIdentical) {
  ModelCache cache;
  const auto artifact = cache.acquire(checkpoint_path());
  auto r1 = artifact->make_replica();
  auto r2 = artifact->make_replica();
  EXPECT_NE(r1.get(), r2.get());
  const Tensor x = random_image(3);
  const Tensor l1 = r1->logits(x);
  const Tensor l2 = r2->logits(x);
  for (std::int64_t i = 0; i < l1.numel(); ++i)
    EXPECT_EQ(l1.data()[i], l2.data()[i]);
}

TEST(ModelCacheTest, MissingFileThrows) {
  ModelCache cache;
  EXPECT_THROW(cache.acquire("/nonexistent/model.snnm"), util::Error);
}

TEST(ServerTest, SingleRequestMatchesOneShotModelBitwise) {
  Server server(inline_config());
  auto reference = snn::load_spiking_lenet(checkpoint_path());

  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const Tensor x = random_image(seed);
    const Tensor expected = reference.model->logits(x);
    InferResult r;
    ASSERT_TRUE(server.infer(x, RequestOptions{}, r));
    EXPECT_EQ(r.status, ResultStatus::kOk);
    EXPECT_EQ(r.steps_used, kT);
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.time_steps, kT);
    ASSERT_EQ(static_cast<std::int64_t>(r.scores.size()),
              expected.numel());
    std::int64_t best = 0;
    for (std::int64_t c = 0; c < expected.numel(); ++c) {
      EXPECT_EQ(r.scores[static_cast<std::size_t>(c)], expected.data()[c])
          << "seed " << seed << " class " << c;
      if (expected.data()[c] > expected.data()[best]) best = c;
    }
    EXPECT_EQ(r.pred, best);
  }
}

TEST(ServerTest, AcceptsChwImagesWithoutBatchDim) {
  Server server(inline_config());
  const Tensor x4 = random_image(5);
  Tensor x3(Shape{1, kImage, kImage});
  std::copy(x4.data(), x4.data() + x4.numel(), x3.data());
  InferResult r3;
  InferResult r4;
  ASSERT_TRUE(server.infer(x3, RequestOptions{}, r3));
  ASSERT_TRUE(server.infer(x4, RequestOptions{}, r4));
  EXPECT_EQ(r3.pred, r4.pred);
  for (std::size_t c = 0; c < r3.scores.size(); ++c)
    EXPECT_EQ(r3.scores[c], r4.scores[c]);
}

TEST(ServerTest, ConcurrentBatchedResultsAreBitIdenticalToSingle) {
  // Many clients against the inline server: requests ride micro-batches of
  // whatever composition the timing produces, and every result must still
  // be bit-identical to the model evaluated alone on that image.
  auto config = inline_config(4, 2000);
  Server server(config);
  auto reference = snn::load_spiking_lenet(checkpoint_path());

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::vector<float>> expected;
  std::vector<Tensor> images;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    images.push_back(random_image(100 + static_cast<std::uint64_t>(i)));
    const Tensor logits = reference.model->logits(images.back());
    expected.emplace_back(logits.data(), logits.data() + logits.numel());
  }

  std::vector<int> mismatches(kClients, 0);
  std::vector<std::int64_t> max_batch_seen(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      InferResult r;  // reused across requests, like a real client loop
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = c * kPerClient + i;
        if (!server.infer(images[static_cast<std::size_t>(idx)],
                          RequestOptions{}, r)) {
          ++mismatches[static_cast<std::size_t>(c)];
          continue;
        }
        max_batch_seen[static_cast<std::size_t>(c)] =
            std::max(max_batch_seen[static_cast<std::size_t>(c)],
                     r.batch_size);
        const auto& want = expected[static_cast<std::size_t>(idx)];
        for (std::size_t k = 0; k < want.size(); ++k)
          if (r.scores[k] != want[k])
            ++mismatches[static_cast<std::size_t>(c)];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
        << "client " << c;
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ServerTest, MaxStepsTruncatesToPrefix) {
  Server server(inline_config());
  const auto artifact = ModelCache::global().acquire(checkpoint_path());
  auto replica = artifact->make_replica();
  snn::AnytimeRunner runner(*replica);

  const Tensor x = random_image(77);
  RequestOptions opt;
  opt.max_steps = 2;
  InferResult r;
  ASSERT_TRUE(server.infer(x, opt, r));
  EXPECT_EQ(r.steps_used, 2);
  EXPECT_TRUE(r.truncated);
  const Tensor& want = runner.run(x, 2);
  for (std::int64_t c = 0; c < want.numel(); ++c)
    EXPECT_EQ(r.scores[static_cast<std::size_t>(c)], want.data()[c]);
  EXPECT_EQ(server.stats().truncated, 1);
}

TEST(ServerTest, ExpiredDeadlineTruncatesAtMinSteps) {
  ServerConfig config = inline_config();
  config.min_steps = 2;
  Server server(config);
  RequestOptions opt;
  opt.deadline_us = 1;  // long expired by the first completed step
  InferResult r;
  ASSERT_TRUE(server.infer(random_image(88), opt, r));
  EXPECT_EQ(r.steps_used, 2) << "deadline must not cut below min_steps";
  EXPECT_TRUE(r.truncated);
  EXPECT_GT(r.latency_us, 0);
}

TEST(ServerTest, StoppedServerRejectsNewRequests) {
  Server server(inline_config());
  server.stop();
  InferResult r;
  EXPECT_FALSE(server.infer(random_image(99), RequestOptions{}, r));
  EXPECT_EQ(r.status, ResultStatus::kRejected);
  EXPECT_EQ(server.stats().shed, 1);
}

TEST(ServerTest, RejectsBadInputShape) {
  Server server(inline_config());
  InferResult r;
  EXPECT_THROW(
      server.infer(Tensor(Shape{2, 1, kImage, kImage}), RequestOptions{}, r),
      util::Error);
  EXPECT_THROW(server.infer(Tensor(Shape{kImage * kImage}), RequestOptions{},
                            r),
               util::Error);
}

TEST(ServerTest, RejectsResidentWorkers) {
  // Callers always drive batches, so 0 is the only valid worker count.
  ServerConfig config = inline_config();
  config.workers = 2;
  EXPECT_THROW(Server server(config), util::Error);
}

}  // namespace
}  // namespace snnsec::serve
