// Shared load-generation helpers for the serving benches (bench_serve,
// bench_chaos): closed/open-loop drivers and the accuracy-vs-truncation
// curve point. The client loops and the result they fill in
// (fleet::LoadReport) live in the reusable fleet loadgen engine
// (src/fleet/loadgen.hpp, also behind the snnsec_loadgen CLI); this header
// keeps the bench-side curve point and JSON emission so each bench stays a
// single self-contained binary with its own operator-new hook.
#pragma once

#include <cstdint>
#include <cstdio>

#include "data/provider.hpp"
#include "fleet/loadgen.hpp"
#include "nn/metrics.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::bench {

struct CurvePoint {
  std::int64_t max_steps = 0;
  double accuracy = 0.0;
  double mean_latency_us = 0.0;
};

/// Closed loop: `clients` threads each fire `per_client` back-to-back
/// requests cycling through the test images.
inline fleet::LoadReport closed_loop(serve::Server& server,
                                     const tensor::Tensor& images,
                                     std::int64_t clients,
                                     std::int64_t per_client) {
  fleet::ServerTarget target(server);
  fleet::LoadSpec spec;
  spec.mode = fleet::LoadSpec::Mode::kClosed;
  spec.total = clients * per_client;
  spec.clients = clients;
  return fleet::run_load(target, images, spec);
}

/// Open loop: arrivals paced at `rate_rps` across a submitter pool, each
/// request carrying `deadline_us`. When the offered rate exceeds capacity
/// the submitters saturate and deadlines start truncating the time window.
inline fleet::LoadReport open_loop(serve::Server& server,
                                   const tensor::Tensor& images,
                                   std::int64_t total, double rate_rps,
                                   std::int64_t deadline_us,
                                   std::int64_t submitters) {
  fleet::ServerTarget target(server);
  fleet::LoadSpec spec;
  spec.mode = fleet::LoadSpec::Mode::kOpen;
  spec.total = total;
  spec.clients = submitters;
  spec.rate_rps = rate_rps;
  spec.options.deadline_us = deadline_us;
  return fleet::run_load(target, images, spec);
}

/// Serve the whole test split sequentially at a fixed step budget.
inline CurvePoint curve_point(serve::Server& server,
                              const data::DataBundle& bundle,
                              std::int64_t max_steps) {
  CurvePoint p;
  p.max_steps = max_steps;
  serve::RequestOptions opt;
  opt.max_steps = max_steps;
  serve::InferResult r;
  const std::int64_t n = bundle.test.images.dim(0);
  std::int64_t correct = 0;
  std::int64_t latency_sum = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const tensor::Tensor x = nn::slice_batch(bundle.test.images, i, i + 1);
    if (!server.infer(x, opt, r)) continue;
    if (r.pred == bundle.test.labels[static_cast<std::size_t>(i)]) ++correct;
    latency_sum += r.latency_us;
  }
  p.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  p.mean_latency_us =
      static_cast<double>(latency_sum) / static_cast<double>(n);
  return p;
}

/// One load run as a JSON member. "shed" is everything offered but not
/// completed, whichever admission layer said no.
inline void write_load(std::FILE* f, const char* key,
                       const fleet::LoadReport& r, const char* extra) {
  std::fprintf(f,
               "  \"%s\": {\"offered\": %lld, \"completed\": %lld, "
               "\"shed\": %lld, \"truncated\": %lld, \"wall_s\": %.3f, "
               "\"throughput_rps\": %.1f, \"p50_us\": %.0f, \"p95_us\": "
               "%.0f, \"p99_us\": %.0f, \"mean_batch\": %.2f%s},\n",
               key, static_cast<long long>(r.offered),
               static_cast<long long>(r.completed),
               static_cast<long long>(r.offered - r.completed),
               static_cast<long long>(r.truncated), r.wall_s,
               r.throughput_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_batch,
               extra);
}

}  // namespace snnsec::bench
