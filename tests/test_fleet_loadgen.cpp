// fleet loadgen engine: deterministic tenant mix, closed/open loop
// accounting, trace parse/replay, and an in-process Router integration
// pass with quota.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/loadgen.hpp"
#include "fleet/router.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snnsec::fleet {
namespace {

namespace fs = std::filesystem;
using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kImage = 8;

/// In-process target that records every submission; no model involved.
struct FakeTarget : LoadTarget {
  struct Record {
    std::uint64_t tenant;
    std::int64_t deadline_us;
    std::int64_t max_steps;
  };

  struct Client : LoadClient {
    explicit Client(FakeTarget& t) : target(t) {}
    void submit(std::uint64_t tenant, const Tensor& x,
                const LoadOptions& opt, Reply& out) override {
      (void)x;
      {
        std::lock_guard<std::mutex> lk(target.m);
        target.records.push_back({tenant, opt.deadline_us, opt.max_steps});
      }
      out = Reply{};
      out.ok = true;
      out.pred = 0;
      out.latency_us = 10;
      out.batch_size = 1;
    }
    FakeTarget& target;
  };

  std::unique_ptr<LoadClient> connect() override {
    connects.fetch_add(1);
    return std::make_unique<Client>(*this);
  }

  std::map<std::uint64_t, std::int64_t> tenant_counts() {
    std::lock_guard<std::mutex> lk(m);
    std::map<std::uint64_t, std::int64_t> counts;
    for (const Record& r : records) ++counts[r.tenant];
    return counts;
  }

  std::mutex m;
  std::vector<Record> records;
  std::atomic<int> connects{0};
};

Tensor image_set(std::int64_t n) {
  util::Rng rng(7);
  Tensor images(Shape{n, 1, kImage, kImage});
  rng.fill_uniform(images.data(), static_cast<std::size_t>(images.numel()),
                   0.0f, 1.0f);
  return images;
}

TEST(FleetLoadgen, ClosedLoopOffersExactlyTotal) {
  FakeTarget target;
  const Tensor images = image_set(4);
  LoadSpec spec;
  spec.total = 7;  // does not divide clients evenly
  spec.clients = 3;
  const LoadReport r = run_load(target, images, spec);
  EXPECT_EQ(r.offered, 7);
  EXPECT_EQ(r.completed, 7);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(target.connects.load(), 3);
  EXPECT_GT(r.p50_us, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
}

TEST(FleetLoadgen, TenantMixFollowsWeights) {
  FakeTarget target;
  const Tensor images = image_set(4);
  LoadSpec spec;
  spec.total = 2000;
  spec.clients = 2;
  spec.mix = {{1, 3.0}, {2, 1.0}};
  spec.seed = 11;
  const LoadReport r = run_load(target, images, spec);
  EXPECT_EQ(r.offered, 2000);
  const auto counts = target.tenant_counts();
  ASSERT_EQ(counts.size(), 2U);
  const double share1 =
      static_cast<double>(counts.at(1)) / static_cast<double>(spec.total);
  EXPECT_NEAR(share1, 0.75, 0.05);
}

TEST(FleetLoadgen, SeededMixIsDeterministic) {
  const Tensor images = image_set(4);
  LoadSpec spec;
  spec.total = 300;
  spec.clients = 2;
  spec.mix = {{1, 1.0}, {2, 1.0}, {3, 1.0}};
  spec.seed = 42;
  FakeTarget a;
  FakeTarget b;
  run_load(a, images, spec);
  run_load(b, images, spec);
  EXPECT_EQ(a.tenant_counts(), b.tenant_counts());
}

TEST(FleetLoadgen, EmptyMixDefaultsToTenantZero) {
  FakeTarget target;
  const Tensor images = image_set(2);
  LoadSpec spec;
  spec.total = 5;
  const LoadReport r = run_load(target, images, spec);
  EXPECT_EQ(r.offered, 5);
  const auto counts = target.tenant_counts();
  ASSERT_EQ(counts.size(), 1U);
  EXPECT_EQ(counts.at(0), 5);
}

TEST(FleetLoadgen, OptionsReachEveryRequest) {
  FakeTarget target;
  const Tensor images = image_set(2);
  LoadSpec spec;
  spec.total = 4;
  spec.options.deadline_us = 9000;
  spec.options.max_steps = 5;
  run_load(target, images, spec);
  for (const auto& rec : target.records) {
    EXPECT_EQ(rec.deadline_us, 9000);
    EXPECT_EQ(rec.max_steps, 5);
  }
}

TEST(FleetLoadgen, OpenLoopPacesArrivals) {
  FakeTarget target;
  const Tensor images = image_set(2);
  LoadSpec spec;
  spec.mode = LoadSpec::Mode::kOpen;
  spec.total = 20;
  spec.clients = 2;
  spec.rate_rps = 2000.0;
  const LoadReport r = run_load(target, images, spec);
  EXPECT_EQ(r.offered, 20);
  EXPECT_EQ(r.completed, 20);
  // 20 arrivals at 2000 rps occupy ~10 ms of wall clock.
  EXPECT_GE(r.wall_s, 0.005);
}

TEST(FleetLoadgen, ParseTraceSkipsCommentsAndDefaults) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "1 0\n"
      "2 3 5000\n"
      "7 1 2500 6\n");
  const auto entries = parse_trace(in);
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].tenant, 1U);
  EXPECT_EQ(entries[0].sample, 0);
  EXPECT_EQ(entries[0].deadline_us, 0);
  EXPECT_EQ(entries[0].max_steps, 0);
  EXPECT_EQ(entries[1].deadline_us, 5000);
  EXPECT_EQ(entries[2].tenant, 7U);
  EXPECT_EQ(entries[2].max_steps, 6);
}

TEST(FleetLoadgen, ParseTraceRejectsMalformedLines) {
  std::istringstream only_tenant("3\n");
  EXPECT_THROW(parse_trace(only_tenant), util::Error);
  std::istringstream negative("1 -2\n");
  EXPECT_THROW(parse_trace(negative), util::Error);
}

TEST(FleetLoadgen, ReplayDeliversEveryEntryWithItsOptions) {
  FakeTarget target;
  const Tensor images = image_set(4);
  std::vector<TraceEntry> entries;
  for (std::int64_t i = 0; i < 10; ++i)
    entries.push_back({static_cast<std::uint64_t>(i % 3), i % 4, 100 * i,
                       i % 5});
  const LoadReport r = replay_trace(target, images, entries, 2);
  EXPECT_EQ(r.offered, 10);
  EXPECT_EQ(r.completed, 10);
  ASSERT_EQ(target.records.size(), 10U);
  // Every recorded (tenant, deadline, steps) triple matches some entry.
  std::multiset<std::int64_t> want;
  std::multiset<std::int64_t> got;
  for (const auto& e : entries)
    want.insert(static_cast<std::int64_t>(e.tenant) * 1000000 +
                e.deadline_us + e.max_steps);
  for (const auto& rec : target.records)
    got.insert(static_cast<std::int64_t>(rec.tenant) * 1000000 +
               rec.deadline_us + rec.max_steps);
  EXPECT_EQ(want, got);
}

TEST(FleetLoadgen, RouterTargetHonoursQuota) {
  const std::string path =
      (fs::temp_directory_path() / "snnsec_test_fleetlg_cell.snnm")
          .string();
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = kImage;
  snn::SnnConfig scfg;
  scfg.v_th = 1.0;
  scfg.time_steps = 6;
  util::Rng rng(42);
  auto model = snn::build_spiking_lenet(arch, scfg, rng);
  snn::save_spiking_lenet(path, *model, arch, scfg);

  RouterConfig rc;
  GroupConfig g;
  g.name = "solo";
  g.role = GroupRole::kBalanced;
  g.model_path = path;
  g.server.batcher.max_batch = 2;
  g.server.batcher.max_delay_us = 200;
  g.server.batcher.capacity = 16;
  rc.groups.push_back(g);
  rc.tenants.push_back({5, Threat::kTrusted, 0.0, 4.0});  // budget of four
  Router router(rc);

  RouterTarget target(router);
  const Tensor images = image_set(4);
  LoadSpec spec;
  spec.total = 8;
  spec.clients = 1;
  spec.mix = {{5, 1.0}};
  const LoadReport r = run_load(target, images, spec);
  EXPECT_EQ(r.offered, 8);
  EXPECT_EQ(r.completed, 4);
  EXPECT_EQ(r.quota_rejected, 4);
  EXPECT_EQ(r.errors, 0);
}

}  // namespace
}  // namespace snnsec::fleet
