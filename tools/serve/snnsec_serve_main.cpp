// snnsec_serve: command-line front end for the src/serve inference runtime.
//
// Serves requests against a fingerprint-validated checkpoint through the
// batched, deadline-aware Server. Requests are read from --requests FILE or
// stdin, one per line:
//
//   <sample_index> [deadline_us] [max_steps]
//
// where sample_index selects an image from the task's test split (MNIST when
// MNIST_DIR is set, synthetic digits otherwise). Blank lines and lines
// starting with '#' are skipped. When the checkpoint does not exist yet, a
// small model is trained and saved there first, so
//
//   echo "0" | ./snnsec_serve --model /tmp/digits.snnm
//
// is a self-contained smoke run. --clients N replays the request list from
// N threads so the micro-batcher actually forms batches.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/provider.hpp"
#include "nn/metrics.hpp"
#include "obs/metrics.hpp"
#include "serve_common.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace snnsec;

struct Request {
  std::int64_t sample = 0;
  serve::RequestOptions opt;
};

struct Outcome {
  serve::InferResult result;
  std::int64_t sample = 0;
  bool accepted = false;
};

std::vector<Request> read_requests(std::istream& in, std::int64_t test_n) {
  std::vector<Request> reqs;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    Request r;
    if (!(fields >> r.sample)) {
      SNNSEC_FAIL("snnsec_serve: bad request line " << line_no << ": '"
                                                    << line << "'");
    }
    fields >> r.opt.deadline_us >> r.opt.max_steps;  // both optional
    SNNSEC_CHECK(r.sample >= 0 && r.sample < test_n,
                 "snnsec_serve: sample index " << r.sample << " on line "
                                              << line_no
                                              << " outside test split [0, "
                                              << test_n << ")");
    reqs.push_back(r);
  }
  return reqs;
}

/// Periodic obs::Registry snapshot exporter (--metrics-interval). Sleeps in
/// short slices so shutdown is prompt even with long intervals.
class MetricsExporter {
 public:
  explicit MetricsExporter(std::int64_t interval_ms) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, interval_ms] {
      const auto slice = std::chrono::milliseconds(20);
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(interval_ms);
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(slice);
        if (std::chrono::steady_clock::now() < next) continue;
        obs::Registry::instance().append_snapshot();
        next += std::chrono::milliseconds(interval_ms);
      }
    });
  }
  ~MetricsExporter() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("snnsec_serve",
                       "serve SNN inference requests from a checkpoint");
  auto& model_path = args.add_string("model", "serve_model.snnm",
                                     "checkpoint path (trained if missing)");
  auto& requests_path =
      args.add_string("requests", "", "request file; default reads stdin");
  auto& clients = args.add_int("clients", 1, "client threads replaying load");
  auto& max_batch = args.add_int("max-batch", 8, "micro-batch size cap");
  auto& max_delay =
      args.add_int("max-delay-us", 1000, "micro-batch flush delay");
  auto& capacity = args.add_int("capacity", 64, "admission queue capacity");
  auto& min_steps =
      args.add_int("min-steps", 1, "deadline never truncates below this");
  auto& default_deadline = args.add_int(
      "default-deadline-us", 0, "deadline for requests that carry none");
  auto& train_n = args.add_int("train", 600, "fallback-training samples");
  auto& test_n = args.add_int("test", 200, "test-split samples");
  auto& image = args.add_int("image-size", 16, "input resolution");
  auto& time_steps =
      args.add_int("time-steps", 16, "time window T for fallback training");
  auto& v_th = args.add_double("vth", 1.0, "threshold for fallback training");
  auto& epochs = args.add_int("epochs", 2, "fallback-training epochs");
  auto& envelope_path = args.add_string(
      "envelope", "", "clean-traffic envelope (snnsec_calibrate); arms "
                      "online adversarial detection");
  auto& detect_policy = args.add_string(
      "detect-policy", "observe",
      "flagged requests: observe | reject | reroute (reroute only escalates "
      "behind the fleet router; standalone it behaves like observe)");
  auto& flag_threshold = args.add_double(
      "flag-threshold", 4.0, "anomaly z-score that flags a request");
  auto& supervise = args.add_flag(
      "supervise", "enable replica supervision (canaries, self-healing, "
                   "overload governor)");
  auto& canary_interval = args.add_int(
      "canary-interval-ms", 500, "ms between deep canary probes per replica");
  auto& heartbeat_timeout = args.add_int(
      "heartbeat-timeout-ms", 1000,
      "watchdog quarantines a batch silent for this long; 0 disables");
  auto& max_respawns = args.add_int(
      "max-respawns", 16,
      "replica respawn budget; once spent, supervision is disabled");
  auto& metrics_interval = args.add_int(
      "metrics-interval", 0,
      "ms between obs::Registry snapshots appended to the metrics sink; "
      "0 = final snapshot only");
  auto& metrics_file = args.add_string(
      "metrics-file", "", "JSONL metrics sink (default SNNSEC_METRICS_FILE)");
  auto& verbose = args.add_flag("verbose", "print one line per request");
  args.parse(argc, argv);

  // Reject nonsense thresholds at parse time, before any model is trained
  // or loaded: a negative threshold would flag every request.
  SNNSEC_CHECK(std::isfinite(flag_threshold) && flag_threshold >= 0.0,
               "snnsec_serve: --flag-threshold must be finite and >= 0, got "
                   << flag_threshold);

  if (!metrics_file.empty())
    obs::Registry::instance().set_sink_path(metrics_file);
  SNNSEC_CHECK(metrics_interval == 0 || obs::Registry::instance().has_sink(),
               "snnsec_serve: --metrics-interval needs a sink; pass "
               "--metrics-file or set SNNSEC_METRICS_FILE");
  MetricsExporter exporter(metrics_interval);

  data::DataSpec dspec;
  dspec.train_n = train_n;
  dspec.test_n = test_n;
  dspec.image_size = image;
  const data::DataBundle bundle = data::load_digits(dspec);
  std::printf("data source: %s | test %s\n", bundle.source(),
              bundle.test.summary().c_str());

  if (!std::ifstream(model_path).good())
    tools::train_checkpoint(model_path, bundle, image, time_steps, v_th,
                            epochs);

  serve::ServerConfig scfg;
  scfg.model_path = model_path;
  scfg.batcher.max_batch = max_batch;
  scfg.batcher.max_delay_us = max_delay;
  scfg.batcher.capacity = capacity;
  scfg.min_steps = min_steps;
  scfg.default_deadline_us = default_deadline;
  scfg.envelope_path = envelope_path;
  if (detect_policy == "reject") {
    scfg.detect_policy = serve::DetectPolicy::kReject;
  } else if (detect_policy == "reroute") {
    scfg.detect_policy = serve::DetectPolicy::kReroute;
  } else {
    SNNSEC_CHECK(detect_policy == "observe",
                 "snnsec_serve: --detect-policy must be observe, reject or "
                 "reroute, got '" << detect_policy << "'");
  }
  scfg.flag_threshold = flag_threshold;
  scfg.supervisor.enabled = supervise;
  scfg.supervisor.canary_interval_ms = canary_interval;
  scfg.supervisor.heartbeat_timeout_ms = heartbeat_timeout;
  scfg.supervisor.max_respawns = max_respawns;
  serve::Server server(scfg);
  std::printf(
      "serving %s | T=%lld | max_batch=%lld delay=%lldus capacity=%lld | "
      "detection %s | supervision %s\n",
      model_path.c_str(), static_cast<long long>(server.time_steps()),
      static_cast<long long>(max_batch), static_cast<long long>(max_delay),
      static_cast<long long>(capacity),
      server.detector_ready() ? serve::to_string(scfg.detect_policy) : "off",
      server.supervisor() ? "on" : "off");

  std::vector<Request> requests;
  if (requests_path.empty()) {
    requests = read_requests(std::cin, test_n);
  } else {
    std::ifstream file(requests_path);
    SNNSEC_CHECK(file.good(),
                 "snnsec_serve: cannot open requests file " << requests_path);
    requests = read_requests(file, test_n);
  }
  if (requests.empty()) {
    std::printf("no requests; exiting\n");
    return 0;
  }

  // Replay: each client thread walks a strided partition of the request
  // list, so concurrent submissions can ride shared micro-batches.
  const std::int64_t num_clients =
      std::max<std::int64_t>(1, std::min<std::int64_t>(
                                    clients,
                                    static_cast<std::int64_t>(
                                        requests.size())));
  std::vector<Outcome> outcomes(requests.size());
  util::Stopwatch watch;
  std::vector<std::thread> pool;
  for (std::int64_t c = 0; c < num_clients; ++c) {
    pool.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < requests.size();
           i += static_cast<std::size_t>(num_clients)) {
        const Request& r = requests[i];
        Outcome& o = outcomes[i];
        o.sample = r.sample;
        const tensor::Tensor x =
            nn::slice_batch(bundle.test.images, r.sample, r.sample + 1);
        o.accepted = server.infer(x, r.opt, o.result);
      }
    });
  }
  for (auto& t : pool) t.join();
  const double wall_s = watch.seconds();

  std::int64_t correct = 0;
  std::int64_t answered = 0;
  std::int64_t truncated = 0;
  std::int64_t flagged = 0;
  std::int64_t latency_sum = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const serve::InferResult& r = o.result;
    const std::int64_t label =
        bundle.test.labels[static_cast<std::size_t>(o.sample)];
    if (o.accepted) {
      ++answered;
      if (r.pred == label) ++correct;
      if (r.truncated) ++truncated;
      latency_sum += r.latency_us;
    }
    if (r.flagged) ++flagged;
    if (verbose) {
      char detect[64] = "";
      if (r.anomaly_score >= 0)
        std::snprintf(detect, sizeof(detect), " score=%.2f%s",
                      r.anomaly_score, r.flagged ? " FLAGGED" : "");
      std::printf("req %zu sample=%lld %s pred=%lld label=%lld steps=%lld/"
                  "%lld batch=%lld queue=%lldus latency=%lldus%s%s\n",
                  i, static_cast<long long>(o.sample),
                  serve::to_string(r.status), static_cast<long long>(r.pred),
                  static_cast<long long>(label),
                  static_cast<long long>(r.steps_used),
                  static_cast<long long>(r.time_steps),
                  static_cast<long long>(r.batch_size),
                  static_cast<long long>(r.queue_us),
                  static_cast<long long>(r.latency_us), detect,
                  r.error.empty() ? "" : (" " + r.error).c_str());
    }
  }

  const serve::ServerStats stats = server.stats();
  std::printf(
      "served %lld/%zu requests in %.3fs (%.1f req/s) | accuracy %.1f%% | "
      "truncated %lld | flagged %lld | shed %lld | errors %lld | batches "
      "%lld | mean latency %.0fus\n",
      static_cast<long long>(answered), outcomes.size(), wall_s,
      wall_s > 0 ? static_cast<double>(answered) / wall_s : 0.0,
      answered > 0 ? 100.0 * static_cast<double>(correct) /
                         static_cast<double>(answered)
                   : 0.0,
      static_cast<long long>(truncated), static_cast<long long>(flagged),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.errors),
      static_cast<long long>(stats.batches),
      answered > 0 ? static_cast<double>(latency_sum) /
                         static_cast<double>(answered)
                   : 0.0);
  // One-line ServerStats dump: the server's own monotonic counters (the
  // replay tallies above count only this process's accepted requests).
  std::printf(
      "server stats: submitted=%lld completed=%lld shed=%lld errors=%lld "
      "truncated=%lld flagged=%lld batches=%lld quarantines=%lld "
      "respawns=%lld watchdog_trips=%lld retries=%lld degraded=%lld\n",
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.errors),
      static_cast<long long>(stats.truncated),
      static_cast<long long>(stats.flagged),
      static_cast<long long>(stats.batches),
      static_cast<long long>(stats.quarantines),
      static_cast<long long>(stats.respawns),
      static_cast<long long>(stats.watchdog_trips),
      static_cast<long long>(stats.retries),
      static_cast<long long>(stats.degraded));
  server.stop();
  return stats.errors == 0 ? 0 : 1;
}
