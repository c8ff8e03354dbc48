// trusted_wire: the trusted tenant over one TCP connection to Frontend ->
// Router -> the low cell at its 14/16-step cliff budget, batch 1, on clean
// test images. The forward is the shortest of any path here, so wire,
// front-end, router and serve overhead is the largest share it ever is.
#include <memory>

#include "bench.hpp"
#include "fleet/client.hpp"
#include "fleet/frontend.hpp"
#include "fleet/wire.hpp"
#include "serve/model_cache.hpp"
#include "snn/anytime.hpp"

namespace perfbench {

namespace sn = snnsec;

namespace {

constexpr std::int64_t kWindowRequests = 25;
constexpr std::int64_t kCliffSteps = 14;  // the router's 7T/8 default
constexpr int kSetupReps = 40;
constexpr std::size_t kMaxPayload = 1 << 16;
constexpr std::int64_t kPixels = 16 * 16;

/// One stand-up of the serving stack: router, front-end and a connected
/// client. Torn down in reverse order.
struct Stack {
  std::unique_ptr<sn::fleet::Router> router;
  std::unique_ptr<sn::fleet::Frontend> frontend;
  std::unique_ptr<sn::fleet::WireClient> client;

  explicit Stack(const Prepared& prep) {
    // max_delay_us = 0: a lone request would otherwise wait out the whole
    // flush delay in the batcher, a sleep the drift correction cannot scale.
    router = std::make_unique<sn::fleet::Router>(router_config(prep, 1, 0));
    sn::fleet::FrontendConfig fc;
    fc.executors = 1;
    fc.max_payload = kMaxPayload;
    frontend = std::make_unique<sn::fleet::Frontend>(*router, fc);
    client = std::make_unique<sn::fleet::WireClient>(
        "127.0.0.1", frontend->port(), kMaxPayload);
  }
  ~Stack() {
    client.reset();
    frontend->stop();
    router->stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

struct Reply {
  bool ok = false;
  sn::fleet::ResponseMeta meta;
};

}  // namespace

int run_trusted_wire(const Args& args, const Prepared& prep, Report& report) {
  const std::int64_t n = prep.clean_x.dim(0);
  const int classes = static_cast<int>(n / kWindowRequests);
  const std::vector<std::int64_t> order = permutation(n, args.seed);
  auto pixels = [&](std::int64_t img) {
    return prep.clean_x.data() + img * kPixels;
  };
  std::vector<Tensor> singles;
  for (std::int64_t i = 0; i < n; ++i) singles.push_back(gather_rows(prep.clean_x, {i}));

  // The benchmark's own one-shot evaluation: AnytimeRunner at the cliff
  // budget on a low-cell replica.
  std::vector<std::int64_t> expected(static_cast<std::size_t>(n));
  {
    auto model = sn::serve::ModelCache::global()
                     .acquire(prep.checkpoint[0])
                     ->make_replica();
    sn::snn::AnytimeRunner runner(*model);
    for (std::int64_t i = 0; i < n; ++i) {
      const Tensor& lg = runner.run(singles[static_cast<std::size_t>(i)],
                                    kCliffSteps);
      expected[static_cast<std::size_t>(i)] = argmax(lg.data(), lg.dim(1));
    }
  }

  Host host;
  std::uint64_t next_id = 1;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<unsigned char> correct(static_cast<std::size_t>(n), 0);

  auto send = [&](Stack& s, std::int64_t img, Reply& r) {
    sn::fleet::RequestMeta meta;
    meta.request_id = next_id++;
    meta.tenant = kTrustedTenant;
    r.ok = s.client->request(meta, pixels(img),
                             static_cast<std::size_t>(kPixels), r.meta);
  };
  auto check = [&](std::int64_t img, const Reply& r) {
    ++attempted;
    const bool served =
        r.ok && r.meta.status ==
                    static_cast<std::uint8_t>(sn::serve::ResultStatus::kOk);
    if (!served) {
      ++failed;
      return;
    }
    const auto i = static_cast<std::size_t>(img);
    report.check(static_cast<std::int64_t>(r.meta.pred) == expected[i] &&
                     r.meta.steps_used == kCliffSteps && r.meta.group == 0 &&
                     r.meta.batch_size == 1,
                 "trusted reply differs from the one-shot evaluation");
    correct[i] = static_cast<std::int64_t>(r.meta.pred) == prep.clean_y[i];
  };

  // ---- set-up: checkpoints -> Router + Frontend -> first reply.
  std::unique_ptr<Stack> stack;
  Reply first;
  const auto up = [&] {
    sn::serve::ModelCache::global().clear();
    stack = std::make_unique<Stack>(prep);
    send(*stack, order[0], first);
  };
  const auto down = [&] {
    check(order[0], first);
    stack.reset();
  };

  std::vector<Reply> replies(static_cast<std::size_t>(kWindowRequests));
  const auto window = [&](Stack& s, int cls, std::vector<double>& lat) {
    for (std::int64_t k = 0; k < kWindowRequests; ++k) {
      const auto t0 = Clock::now();
      send(s, order[cls * kWindowRequests + k],
           replies[static_cast<std::size_t>(k)]);
      lat[static_cast<std::size_t>(k)] = seconds_between(t0, Clock::now());
    }
  };
  const auto after = [&](int cls) {
    for (std::int64_t k = 0; k < kWindowRequests; ++k)
      check(order[cls * kWindowRequests + k],
            replies[static_cast<std::size_t>(k)]);
  };
  const auto warm = [&](Stack& s) {
    std::vector<double> lat(static_cast<std::size_t>(kWindowRequests));
    for (int c = 0; c < classes; ++c) {
      window(s, c, lat);
      after(c);
    }
  };

  if (!args.trace) {
    const std::vector<Window> setup =
        measure_setup(host, kSetupReps, up, down);
    Stack s(prep);
    warm(s);
    const LoopTimes loop = timed_loop(
        host, args.seconds, classes, kWindowRequests,
        [&](int cls, std::vector<double>& lat) { window(s, cls, lat); },
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
  // The build layer: Router + Frontend constructors (torn down untimed).
  std::unique_ptr<Stack> built;
  measure_setup_layers(prep, spans,
                       [&] { built = std::make_unique<Stack>(prep); }, f);
  built.reset();

  Stack s(prep);
  warm(s);
  // Untraced and traced segments of the same loop: their ops_per_s ratio
  // is the tracing overhead.
  Counters counters;
  const std::int64_t attempted_before = attempted;
  f.trace_ops_ratio = traced_ops_ratio(
      host, 2 * args.seconds / 3, classes, kWindowRequests,
      [&](int cls, std::vector<double>& lat) { window(s, cls, lat); },
      [&](int cls, std::vector<double>& lat) {
        const std::int64_t w = spans.begin("window", -1, 0);
        for (std::int64_t k = 0; k < kWindowRequests; ++k) {
          const std::int64_t sp = spans.begin("wire.request", w, next_id);
          send(s, order[cls * kWindowRequests + k],
               replies[static_cast<std::size_t>(k)]);
          spans.end(sp);
          lat[static_cast<std::size_t>(k)] = spans.seconds(sp);
        }
        spans.end(w);
      },
      after);
  f.take_counters(counters, attempted - attempted_before);

  // Replays: each request once per layer boundary, outermost first, back
  // to back so the paired differences see the same host speed.
  sn::fleet::Router& router = *s.router;
  sn::serve::Server& server = router.replica(0, 0);
  std::vector<double> front_us, router_us, queue_us, batch_rows, steps;
  std::vector<double> wire_s, router_s, server_s;
  std::vector<double> any_s;
  std::vector<Tensor> batches;
  AnytimeProbe probe(prep.checkpoint[0], kCliffSteps);
  std::vector<sn::fleet::ResponseMeta> captured;
  std::vector<std::vector<float>> captured_scores;
  sn::fleet::FleetResult fr;
  sn::serve::InferResult ir;
  sn::serve::RequestOptions cliff;
  cliff.max_steps = kCliffSteps;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t img = order[k];
    const std::uint64_t id = next_id;
    const std::int64_t root = spans.begin("replay", -1, id);
    Reply r;
    std::vector<float> scores;
    {
      sn::fleet::RequestMeta meta;
      meta.request_id = next_id++;
      meta.tenant = kTrustedTenant;
      const std::int64_t sp = spans.begin("frontend.wire_request", root, id);
      r.ok = s.client->request(meta, pixels(img),
                               static_cast<std::size_t>(kPixels), r.meta,
                               &scores);
      spans.end(sp);
      wire_s.push_back(spans.seconds(sp));
      check(img, r);
    }
    captured.push_back(r.meta);
    captured_scores.push_back(scores);
    const Tensor& x = singles[static_cast<std::size_t>(img)];
    std::int64_t sp = spans.begin("router.infer", root, id);
    ++attempted;
    if (!router.infer(kTrustedTenant, x, {}, fr)) ++failed;
    spans.end(sp);
    router_s.push_back(spans.seconds(sp));
    queue_us.push_back(static_cast<double>(fr.result.queue_us));
    batch_rows.push_back(static_cast<double>(fr.result.batch_size));
    steps.push_back(static_cast<double>(fr.result.steps_used));
    sp = spans.begin("serve.infer", root, id);
    ++attempted;
    if (!server.infer(x, cliff, ir)) ++failed;
    spans.end(sp);
    server_s.push_back(spans.seconds(sp));
    any_s.push_back(probe.run(x, spans, root, id));
    spans.end(root);
    batches.push_back(x);
  }
  for (std::size_t k = 0; k < wire_s.size(); ++k) {
    front_us.push_back((wire_s[k] - router_s[k]) * 1e6);
  }
  std::vector<double> router_self, serve_self;
  for (std::size_t k = 0; k < router_s.size(); ++k) {
    router_self.push_back((router_s[k] - server_s[k]) * 1e6);
    serve_self.push_back((server_s[k] - any_s[k]) * 1e6);
  }
  f.frontend_self_us = median(front_us);
  f.router_self_us = median(router_self);
  f.serve_self_us = median(serve_self);
  f.queue_us = median(queue_us);
  f.batch_size = median(batch_rows);
  f.steps_per_req = median(steps);
  f.step_us[0] = probe.step_us();
  f.spiking_layers = probe.count_spikes(batches, f.spikes_per_step[0]);

  // Wire codec on this run's own frames: encode each request, decode each
  // reply (re-encoded from what the client received) through a Decoder.
  {
    constexpr int kPasses = 20;
    std::vector<std::uint8_t> buf(kMaxPayload);
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int p = 0; p < kPasses; ++p)
      for (std::int64_t k = 0; k < n; ++k) {
        sn::fleet::RequestMeta meta;
        meta.request_id = static_cast<std::uint64_t>(k);
        meta.tenant = kTrustedTenant;
        sink += sn::fleet::encode_request(buf.data(), buf.size(), meta,
                                          pixels(order[k]),
                                          static_cast<std::size_t>(kPixels));
      }
    const auto t1 = Clock::now();
    f.encode_ns = seconds_between(t0, t1) * 1e9 /
                  static_cast<double>(kPasses * n);

    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t k = 0; k < captured.size(); ++k) {
      std::vector<std::uint8_t> fb(kMaxPayload);
      fb.resize(sn::fleet::encode_response(fb.data(), fb.size(), captured[k],
                                           captured_scores[k].data()));
      frames.push_back(std::move(fb));
    }
    sn::fleet::Decoder dec(kMaxPayload);
    sn::fleet::FrameView fv;
    sn::fleet::ResponseMeta meta;
    const std::uint8_t* score_bytes = nullptr;
    std::int64_t decoded = 0;
    const auto t2 = Clock::now();
    for (int p = 0; p < kPasses; ++p)
      for (const auto& fb : frames) {
        dec.feed(fb.data(), fb.size());
        if (dec.next(fv) &&
            sn::fleet::decode_response_payload(fv, meta, score_bytes))
          ++decoded;
        sink += meta.pred;
      }
    const auto t3 = Clock::now();
    f.decode_ns = seconds_between(t2, t3) * 1e9 /
                  static_cast<double>(kPasses * frames.size());
    report.check(decoded == kPasses * static_cast<std::int64_t>(frames.size()),
                 "a captured reply frame failed to decode");
    report.note("wire codec checksum " + std::to_string(sink));
  }

  report_layers(report, f, host);
  write_spans(args, spans, report);
  report.print_result(attempted, failed);
  return 0;
}

}  // namespace perfbench
