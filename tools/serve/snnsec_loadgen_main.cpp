// snnsec_loadgen: reusable load generator for the serving stack.
//
// Drives either a fleet front-end over TCP (--connect host:port) or an
// in-process serve::Server (--model checkpoint, trained when missing) with
// the same engine the benches use (src/fleet/loadgen.hpp):
//
//   closed loop   --mode closed --total N --clients C
//   open loop     --mode open --rate RPS --total N
//   trace replay  --trace FILE ("tenant sample [deadline_us] [max_steps]")
//
// Traffic is drawn from the synthetic digits test split (or MNIST when
// MNIST_DIR is set); --mix "1:3,2:1" weights the tenant draw, e.g. 3:1
// trusted:suspect against the snnsec_fleet tenant convention. The report
// prints as one JSON object on stdout.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/provider.hpp"
#include "fleet/loadgen.hpp"
#include "serve_common.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

using namespace snnsec;

std::vector<fleet::TenantShare> parse_mix(const std::string& spec) {
  std::vector<fleet::TenantShare> mix;
  if (spec.empty()) return mix;
  for (const std::string& part : util::split(spec, ',')) {
    const auto fields = util::split(part, ':');
    SNNSEC_CHECK(fields.size() == 2,
                 "snnsec_loadgen: bad --mix entry '"
                     << part << "' (want tenant:weight)");
    fleet::TenantShare share;
    share.tenant = std::stoull(fields[0]);
    share.weight = std::stod(fields[1]);
    SNNSEC_CHECK(share.weight > 0, "snnsec_loadgen: --mix weight for tenant "
                                       << share.tenant
                                       << " must be positive");
    mix.push_back(share);
  }
  return mix;
}

void print_report(const fleet::LoadReport& r) {
  std::printf(
      "{\"offered\": %lld, \"completed\": %lld, \"shed\": %lld, "
      "\"quota_rejected\": %lld, \"errors\": %lld, \"truncated\": %lld, "
      "\"flagged\": %lld, \"wall_s\": %.3f, \"throughput_rps\": %.1f, "
      "\"offered_rps\": %.1f, \"p50_us\": %.0f, \"p95_us\": %.0f, "
      "\"p99_us\": %.0f, \"mean_batch\": %.2f}\n",
      static_cast<long long>(r.offered),
      static_cast<long long>(r.completed), static_cast<long long>(r.shed),
      static_cast<long long>(r.quota_rejected),
      static_cast<long long>(r.errors), static_cast<long long>(r.truncated),
      static_cast<long long>(r.flagged), r.wall_s, r.throughput_rps,
      r.offered_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_batch);
}

int run(int argc, const char* const* argv) {
  util::ArgParser args("snnsec_loadgen",
                       "Load generator for fleet/serve targets");
  auto& connect = args.add_string(
      "connect", "", "fleet front-end host:port (TCP wire target)");
  auto& model = args.add_string(
      "model", "", "in-process server checkpoint (trained when missing)");
  auto& mode = args.add_string("mode", "closed", "closed | open");
  auto& total = args.add_int("total", 1000, "requests to offer");
  auto& clients = args.add_int("clients", 4, "client threads");
  auto& rate = args.add_double("rate", 500.0, "open-loop aggregate rps");
  auto& deadline_us =
      args.add_int("deadline-us", 0, "per-request deadline (0 = none)");
  auto& max_steps =
      args.add_int("max-steps", 0, "per-request step cap (0 = default)");
  auto& mix_spec = args.add_string(
      "mix", "", "tenant mix, e.g. \"1:3,2:1\" (empty = tenant 0)");
  auto& trace = args.add_string(
      "trace", "", "replay this trace file instead of synthetic load");
  auto& image = args.add_int("image", 16, "input image size");
  auto& test_n = args.add_int("test-n", 100, "image pool size");
  auto& seed = args.add_int("seed", 1, "tenant-draw seed");
  args.parse(argc, argv);

  SNNSEC_CHECK(connect.empty() != model.empty(),
               "snnsec_loadgen: exactly one of --connect or --model");

  data::DataSpec dspec;
  dspec.train_n = 400;
  dspec.test_n = test_n;
  dspec.image_size = image;
  const data::DataBundle bundle = data::load_digits(dspec);

  // Pick the target; the in-process path also owns its server.
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<fleet::LoadTarget> target;
  if (!connect.empty()) {
    const auto parts = util::split(connect, ':');
    SNNSEC_CHECK(parts.size() == 2,
                 "snnsec_loadgen: --connect wants host:port, got '"
                     << connect << "'");
    const std::size_t payload =
        4 + 4 * static_cast<std::size_t>(image * image) + 1024;
    target = std::make_unique<fleet::WireTarget>(
        parts[0], std::stoi(parts[1]), payload);
  } else {
    if (!std::ifstream(model).good())
      tools::train_checkpoint(model, bundle, image, 12, 1.0, 2);
    serve::ServerConfig sc;
    sc.model_path = model;
    server = std::make_unique<serve::Server>(sc);
    target = std::make_unique<fleet::ServerTarget>(*server);
  }

  fleet::LoadReport report;
  if (!trace.empty()) {
    std::ifstream in(trace);
    SNNSEC_CHECK(in.good(),
                 "snnsec_loadgen: cannot open trace '" << trace << "'");
    const auto entries = fleet::parse_trace(in);
    report = fleet::replay_trace(*target, bundle.test.images, entries,
                                 clients);
  } else {
    fleet::LoadSpec spec;
    if (mode == "closed") {
      spec.mode = fleet::LoadSpec::Mode::kClosed;
    } else if (mode == "open") {
      spec.mode = fleet::LoadSpec::Mode::kOpen;
    } else {
      SNNSEC_FAIL("snnsec_loadgen: unknown --mode '" << mode
                                                     << "' (closed | open)");
    }
    spec.total = total;
    spec.clients = clients;
    spec.rate_rps = rate;
    spec.options.deadline_us = deadline_us;
    spec.options.max_steps = max_steps;
    spec.mix = parse_mix(mix_spec);
    spec.seed = static_cast<std::uint64_t>(seed);
    report = fleet::run_load(*target, bundle.test.images, spec);
  }
  print_report(report);
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
