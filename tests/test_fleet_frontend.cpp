// fleet::Frontend over loopback TCP: request/response roundtrip, ping
// echo, byte-at-a-time client writes, malformed-stream teardown, quota
// rejections over the wire, concurrent clients, stop-then-drain.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fleet/client.hpp"
#include "fleet/frontend.hpp"
#include "fleet/router.hpp"
#include "fleet/wire.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/rng.hpp"

namespace snnsec::fleet {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kImage = 8;
constexpr std::size_t kPixels = kImage * kImage;
constexpr std::size_t kMaxPayload = 1 << 16;

std::string checkpoint(const char* name, double v_th, std::int64_t steps) {
  const std::string path =
      (fs::temp_directory_path() /
       (std::string("snnsec_test_fleetfe_") + name + ".snnm"))
          .string();
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = kImage;
  snn::SnnConfig cfg;
  cfg.v_th = v_th;
  cfg.time_steps = steps;
  util::Rng rng(42);
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  snn::save_spiking_lenet(path, *model, arch, cfg);
  return path;
}

RouterConfig fleet_config() {
  static const std::string low = checkpoint("low", 0.8, 8);
  static const std::string bal = checkpoint("bal", 1.1, 8);
  static const std::string hard = checkpoint("hard", 1.4, 10);
  RouterConfig cfg;
  const struct {
    const char* name;
    GroupRole role;
    const std::string* path;
  } cells[] = {{"low", GroupRole::kLowLatency, &low},
               {"bal", GroupRole::kBalanced, &bal},
               {"hard", GroupRole::kHardened, &hard}};
  for (const auto& c : cells) {
    GroupConfig g;
    g.name = c.name;
    g.role = c.role;
    g.model_path = *c.path;
    g.replicas = 1;
    g.server.workers = 0;
    g.server.batcher.max_batch = 2;
    g.server.batcher.max_delay_us = 200;
    g.server.batcher.capacity = 16;
    cfg.groups.push_back(g);
  }
  cfg.tenants.push_back({1, Threat::kTrusted, 0.0, 0.0});
  cfg.tenants.push_back({3, Threat::kHostile, 0.0, 0.0});
  return cfg;
}

FrontendConfig frontend_config() {
  FrontendConfig fc;
  fc.port = 0;
  fc.executors = 2;
  fc.queue_capacity = 8;
  fc.max_payload = kMaxPayload;
  return fc;
}

std::vector<float> random_pixels(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> px(kPixels);
  rng.fill_uniform(px.data(), px.size(), 0.0f, 1.0f);
  return px;
}

/// Raw blocking loopback socket for the byte-level tests.
int connect_raw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)), 0);
  return fd;
}

/// Read from fd into dec until one frame surfaces. False on EOF/error.
bool read_one_frame(int fd, Decoder& dec, FrameView& f) {
  std::uint8_t buf[4096];
  for (;;) {
    if (dec.next(f)) return true;
    if (dec.error() != WireError::kNone) return false;
    const ssize_t r = ::recv(fd, buf, std::min(sizeof(buf), dec.free()), 0);
    if (r <= 0) return false;
    if (!dec.feed(buf, static_cast<std::size_t>(r))) return false;
  }
}

TEST(FleetFrontend, RequestResponseRoundtrip) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  WireClient client("127.0.0.1", fe.port(), kMaxPayload);
  ASSERT_TRUE(client.connected());

  const auto px = random_pixels(1);
  RequestMeta meta;
  meta.request_id = 101;
  meta.tenant = 1;
  ResponseMeta out;
  std::vector<float> scores;
  std::string err;
  ASSERT_TRUE(client.request(meta, px.data(), px.size(), out, &scores, &err))
      << err;
  EXPECT_EQ(out.request_id, 101U);
  EXPECT_EQ(out.tenant, 1U);
  EXPECT_EQ(out.status,
            static_cast<std::uint8_t>(serve::ResultStatus::kOk));
  EXPECT_LT(out.pred, 10U);
  ASSERT_EQ(out.num_scores, 10U);
  ASSERT_EQ(scores.size(), 10U);
  EXPECT_EQ(out.group,
            static_cast<std::uint8_t>(router.low_latency_group()));
  // Trusted traffic rides the truncation cliff: 7 of 8 steps.
  EXPECT_EQ(out.steps_used, 7U);
  EXPECT_NE(out.resp_flags & kRespTruncated, 0);

  // The response counter ticks after the reply write returns, so the client
  // can see the reply first; stop() joins the executors, so the counters are
  // final afterwards.
  fe.stop();
  const FrontendStats s = fe.stats();
  EXPECT_EQ(s.connections_accepted, 1);
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.responses, 1);
  EXPECT_EQ(s.malformed, 0);
}

TEST(FleetFrontend, EnsembleFlagTravelsTheWire) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  WireClient client("127.0.0.1", fe.port(), kMaxPayload);
  ASSERT_TRUE(client.connected());
  const auto px = random_pixels(2);
  RequestMeta meta;
  meta.request_id = 1;
  meta.tenant = 3;  // hostile -> ensemble vote
  ResponseMeta out;
  ASSERT_TRUE(client.request(meta, px.data(), px.size(), out));
  EXPECT_NE(out.resp_flags & kRespEnsemble, 0);
  EXPECT_EQ(out.status,
            static_cast<std::uint8_t>(serve::ResultStatus::kOk));
}

TEST(FleetFrontend, PingEchoesPayload) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  WireClient client("127.0.0.1", fe.port(), kMaxPayload);
  ASSERT_TRUE(client.connected());
  const char payload[] = "fleet-ping";
  EXPECT_TRUE(client.ping(payload, sizeof(payload)));
  EXPECT_TRUE(client.ping(nullptr, 0));
}

TEST(FleetFrontend, ByteAtATimeWritesReassemble) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  const int fd = connect_raw(fe.port());

  const auto px = random_pixels(3);
  RequestMeta meta;
  meta.request_id = 55;
  meta.tenant = 1;
  std::vector<std::uint8_t> buf(encoded_size(4 + 4 * kPixels));
  ASSERT_EQ(encode_request(buf.data(), buf.size(), meta, px.data(),
                           px.size()),
            buf.size());
  for (const std::uint8_t b : buf)
    ASSERT_EQ(::send(fd, &b, 1, MSG_NOSIGNAL), 1);

  Decoder dec(kMaxPayload);
  FrameView f;
  ASSERT_TRUE(read_one_frame(fd, dec, f));
  EXPECT_EQ(f.type, FrameType::kResponse);
  EXPECT_EQ(f.request_id, 55U);
  ::close(fd);
}

TEST(FleetFrontend, MalformedStreamGetsErrorThenTeardown) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  const int fd = connect_raw(fe.port());

  std::uint8_t junk[kWireHeaderSize];
  std::memset(junk, 0xEE, sizeof(junk));  // wrong magic
  ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));

  Decoder dec(kMaxPayload);
  FrameView f;
  ASSERT_TRUE(read_one_frame(fd, dec, f));
  EXPECT_EQ(f.type, FrameType::kError);
  // After the error frame the server tears the connection down.
  std::uint8_t b;
  EXPECT_EQ(::recv(fd, &b, 1, 0), 0);
  ::close(fd);
  EXPECT_GE(fe.stats().malformed, 1);
}

TEST(FleetFrontend, WrongImageSizeKeepsConnectionUsable) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  WireClient client("127.0.0.1", fe.port(), kMaxPayload);
  ASSERT_TRUE(client.connected());

  const auto px = random_pixels(4);
  RequestMeta meta;
  meta.request_id = 9;
  meta.tenant = 1;
  ResponseMeta out;
  std::string err;
  // Ship one pixel short: an application error, not stream desync.
  EXPECT_FALSE(
      client.request(meta, px.data(), px.size() - 1, out, nullptr, &err));
  EXPECT_EQ(err, "bad image size");

  // The same connection still serves a well-formed request.
  meta.request_id = 10;
  ASSERT_TRUE(client.request(meta, px.data(), px.size(), out));
  EXPECT_EQ(out.request_id, 10U);
  EXPECT_EQ(fe.stats().connections_accepted, 1);
}

TEST(FleetFrontend, QuotaRejectionTravelsTheWire) {
  RouterConfig rc = fleet_config();
  rc.tenants.push_back({8, Threat::kTrusted, 0.0, 1.0});  // budget of one
  Router router(rc);
  Frontend fe(router, frontend_config());
  WireClient client("127.0.0.1", fe.port(), kMaxPayload);
  ASSERT_TRUE(client.connected());

  const auto px = random_pixels(5);
  RequestMeta meta;
  meta.request_id = 1;
  meta.tenant = 8;
  ResponseMeta out;
  ASSERT_TRUE(client.request(meta, px.data(), px.size(), out));
  EXPECT_EQ(out.status,
            static_cast<std::uint8_t>(serve::ResultStatus::kOk));

  meta.request_id = 2;
  ASSERT_TRUE(client.request(meta, px.data(), px.size(), out));
  EXPECT_EQ(out.status,
            static_cast<std::uint8_t>(serve::ResultStatus::kRejected));
  EXPECT_EQ(out.pred, 0xFFFFFFFFU);
  EXPECT_EQ(out.num_scores, 0U);
}

TEST(FleetFrontend, ConcurrentClientsAllAnswered) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  constexpr int kClients = 3;
  constexpr int kPerClient = 4;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient client("127.0.0.1", fe.port(), kMaxPayload);
      if (!client.connected()) return;
      const auto px =
          random_pixels(100 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        RequestMeta meta;
        meta.request_id =
            static_cast<std::uint64_t>(c) * 1000 +
            static_cast<std::uint64_t>(i);
        meta.tenant = 1;
        ResponseMeta out;
        if (client.request(meta, px.data(), px.size(), out) &&
            out.status ==
                static_cast<std::uint8_t>(serve::ResultStatus::kOk))
          ++ok_counts[static_cast<std::size_t>(c)];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(ok_counts[static_cast<std::size_t>(c)], kPerClient)
        << "client " << c;
  // The response counter ticks after the write lands; stop() joins the
  // executors, so the counters are final afterwards.
  fe.stop();
  const FrontendStats s = fe.stats();
  EXPECT_EQ(s.requests, kClients * kPerClient);
  EXPECT_EQ(s.responses, kClients * kPerClient);
}

TEST(FleetFrontend, SlowReaderCannotWedgeWriters) {
  // Regression: writes used to block without bound, so a client that
  // stopped reading could wedge the I/O thread (inline ping replies) and
  // make stop() hang. Writes are now bounded by write_timeout_ms; a
  // stalled reader is dropped and the front-end stays responsive.
  Router router(fleet_config());
  FrontendConfig fc = frontend_config();
  fc.write_timeout_ms = 50;
  Frontend fe(router, fc);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Pin the receive window small before connecting; this client never
  // reads, so echoed pongs back up into the server's send path fast.
  const int rcv = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(fe.port()));
  inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)), 0);

  const std::size_t kPing = 32 * 1024;
  std::vector<std::uint8_t> payload(kPing, 0xAB);
  std::vector<std::uint8_t> frame(encoded_size(kPing));
  const std::size_t len =
      encode_frame(frame.data(), frame.size(), FrameType::kPing, 0, 1, 1, 0,
                   payload.data(), payload.size());
  ASSERT_EQ(len, frame.size());
  // Pour pings at the server until one echoed pong write times out. The
  // 256-frame ceiling (8 MB of pongs) is far beyond any kernel buffering.
  bool timed_out = false;
  for (int i = 0; i < 256 && !timed_out; ++i) {
    const std::uint8_t* p = frame.data();
    std::size_t n = len;
    while (n > 0) {
      const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      if (w <= 0) break;
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    timed_out = fe.stats().write_timeouts >= 1;
  }
  EXPECT_TRUE(timed_out);
  ::close(fd);
  // The wedge used to surface here: stop() joining a blocked thread.
  fe.stop();
  EXPECT_GE(fe.stats().write_timeouts, 1);
}

TEST(FleetFrontend, StopThenDrainIsIdempotent) {
  Router router(fleet_config());
  Frontend fe(router, frontend_config());
  WireClient client("127.0.0.1", fe.port(), kMaxPayload);
  ASSERT_TRUE(client.connected());
  const auto px = random_pixels(6);
  RequestMeta meta;
  meta.request_id = 77;
  meta.tenant = 1;
  ResponseMeta out;
  ASSERT_TRUE(client.request(meta, px.data(), px.size(), out));

  fe.stop();
  fe.stop();  // idempotent
  const FrontendStats s = fe.stats();
  // Drain guarantee: every dispatched request was answered before close.
  EXPECT_EQ(s.responses, s.requests);
  EXPECT_EQ(s.connections_open, 0);
}

}  // namespace
}  // namespace snnsec::fleet
