#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "serve/model_cache.hpp"
#include "snn/anytime.hpp"

namespace perfbench {

namespace sn = snnsec;

std::vector<std::int64_t> permutation(std::int64_t n, std::uint64_t seed) {
  std::vector<std::int64_t> p(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  std::uint64_t s = seed;
  auto next = [&s] {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(
        next() % static_cast<std::uint64_t>(i + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx) {
  std::vector<std::int64_t> dims = x.shape().dims();
  dims[0] = static_cast<std::int64_t>(idx.size());
  Tensor out{sn::tensor::Shape(dims)};
  const std::int64_t row = x.numel() / x.dim(0);
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::copy(x.data() + idx[i] * row, x.data() + (idx[i] + 1) * row,
              out.data() + static_cast<std::int64_t>(i) * row);
  return out;
}

std::int64_t argmax(const float* row, std::int64_t n) {
  std::int64_t best = 0;
  for (std::int64_t k = 1; k < n; ++k)
    if (row[k] > row[best]) best = k;
  return best;
}

// ---- loop statistics --------------------------------------------------------

double LoopTimes::ops_per_s(bool corrected) const {
  const double s = per_op_seconds(windows, corrected);
  return s > 0.0 ? 1.0 / s : 0.0;
}

double LoopTimes::p50_ms(bool corrected) const {
  std::vector<double> med(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i)
    med[i] = quantile(latency_s[i], 0.5) *
             (corrected ? windows[i].factor() : 1.0);
  return per_window_stat(windows, med) * 1e3;
}

double LoopTimes::p99_ms(bool corrected) const {
  // Every latency of the run, each scaled by its window's factor. Slow
  // requests come in spells the reference only partly sees; on the dev
  // host this pooled tail spread less from process to process than a
  // median over 1000-request blocks on trusted_wire (11% vs 25% over nine
  // processes) and about as much on hostile_batch (18% vs 17%), and a
  // pgd_attack process has too few calls for two such blocks.
  std::vector<double> all;
  for (std::size_t i = 0; i < windows.size(); ++i)
    for (double l : latency_s[i])
      all.push_back(l * (corrected ? windows[i].factor() : 1.0));
  return quantile(std::move(all), 0.99) * 1e3;
}

std::int64_t LoopTimes::samples() const {
  std::int64_t n = 0;
  for (const auto& v : latency_s) n += static_cast<std::int64_t>(v.size());
  return n;
}

// ---- spans --------------------------------------------------------------------

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int64_t SpanLog::begin(const char* name, std::int64_t parent,
                            std::uint64_t request) {
  spans_.push_back({name, now_ns(), -1, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

double SpanLog::seconds(std::int64_t id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

// ---- counters -------------------------------------------------------------------

CounterDelta::CounterDelta(const char* name)
    : name_(name),
      start_(sn::obs::Registry::instance().counter(name).value()) {}

std::int64_t CounterDelta::delta() const {
  return sn::obs::Registry::instance().counter(name_).value() - start_;
}

// ---- report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const char* unit) {
  std::printf("metric %-36s %14.6g %s\n", name.c_str(), value, unit);
  entries_.push_back({name, value, unit});
}

void Report::metric(const std::string& name, double value, double raw,
                    const char* unit) {
  std::printf("metric %-36s %14.6g %s  (raw %.6g %s)\n", name.c_str(), value,
              unit, raw, unit);
  entries_.push_back({name, value, unit});
}

void Report::note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
}

void Report::check(bool ok, const char* what) {
  ++checks_;
  if (ok) return;
  if (mismatches_ < 10) std::printf("# CHECK FAILED: %s\n", what);
  ++mismatches_;
}

void Report::print_result(std::int64_t attempted, std::int64_t failed) const {
  std::printf("# checks: %lld run, %lld failed\n",
              static_cast<long long>(checks_),
              static_cast<long long>(mismatches_));
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (mismatches_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
       << (std::isfinite(e.value) ? e.value : 0.0) << ", \"unit\": \""
       << e.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

void report_end_to_end(Report& report, const std::vector<Window>& setup,
                       const LoopTimes& loop, double accuracy,
                       std::int64_t attempted, std::int64_t failed,
                       const Host& host) {
  report.metric("setup_s", per_op_seconds(setup, true),
                per_op_seconds(setup, false), "s");
  report.metric("ops_per_s", loop.ops_per_s(true), loop.ops_per_s(false),
                "1/s");
  report.metric("p50_ms", loop.p50_ms(true), loop.p50_ms(false), "ms");
  report.metric("p99_ms", loop.p99_ms(true), loop.p99_ms(false), "ms");
  report.metric("accuracy", accuracy, "ratio");
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  // failed_share itself is 0 on a healthy run, so the result carries its
  // complement.
  report.metric("served_share", 1.0 - failed_share, "ratio");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  std::ostringstream os;
  os << "failed_share " << failed_share << " (" << failed << " of "
     << attempted << "); " << loop.samples() << " latency samples in "
     << loop.windows.size() << " windows, " << setup.size()
     << " stand-ups; reference loop median "
     << quantile(host.samples(), 0.5) * 1e3 << " ms, IQR "
     << rel_iqr(host.samples()) * 100 << "%";
  report.note(os.str());
}

void LayerFigures::take_counters(const Counters& c, std::int64_t ops) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  const auto calls = static_cast<double>(c.gemm_calls.delta());
  gemm_calls_per_op = calls / n;
  gemm_mflop_per_op = static_cast<double>(c.gemm_flops.delta()) * 1e-6 / n;
  events_share =
      calls > 0 ? static_cast<double>(c.gemm_events.delta()) / calls : 0.0;
  pool_tasks_per_op = static_cast<double>(c.pool_tasks.delta()) / n;
  const auto batches = static_cast<double>(c.batches.delta());
  canaries_per_batch =
      batches > 0 ? static_cast<double>(c.fast_canaries.delta()) / batches
                  : 0.0;
  grad_evals_per_op = static_cast<double>(c.grad_evals.delta()) / n;
}

void report_layers(Report& report, const LayerFigures& f, const Host& host) {
  report.metric("setup.load_ms", f.load_ms, "ms");
  report.metric("setup.build_ms", f.build_ms, "ms");
  report.metric("wire.encode_ns", f.encode_ns, "ns");
  report.metric("wire.decode_ns", f.decode_ns, "ns");
  report.metric("frontend.self_us", f.frontend_self_us, "us");
  report.metric("router.self_us", f.router_self_us, "us");
  report.metric("serve.self_us", f.serve_self_us, "us");
  report.metric("serve.queue_us", f.queue_us, "us");
  report.metric("serve.batch_size", f.batch_size, "count");
  report.metric("serve.canaries_per_batch", f.canaries_per_batch, "count");
  for (int c = 0; c < kNumCells; ++c)
    report.metric(std::string("anytime.step_us.") + kCells[c].name,
                  f.step_us[c], "us");
  report.metric("anytime.steps_per_req", f.steps_per_req, "count");
  report.check(f.spiking_layers == LayerFigures::kSpikingLayers,
               "the cells' spiking-layer count changed");
  for (int c = 0; c < kNumCells; ++c)
    for (int l = 0; l < LayerFigures::kSpikingLayers; ++l)
      report.metric(std::string("snn.spikes_per_step.") + kCells[c].name +
                        ".lif" + std::to_string(l),
                    f.spikes_per_step[c][l], "count");
  report.metric("tensor.gemm_calls_per_op", f.gemm_calls_per_op, "count");
  report.metric("tensor.gemm_mflop_per_op", f.gemm_mflop_per_op, "MFLOP");
  report.metric("tensor.events_share", f.events_share, "ratio");
  report.metric("pool.tasks_per_op", f.pool_tasks_per_op, "count");
  report.metric("nn.forward_ms", f.forward_ms, "ms");
  report.metric("nn.input_grad_ms", f.input_grad_ms, "ms");
  report.metric("attack.grad_evals_per_op", f.grad_evals_per_op, "count");
  report.metric("host.ref_ms", quantile(host.samples(), 0.5) * 1e3, "ms");
  report.metric("host.ref_iqr", rel_iqr(host.samples()), "ratio");
  report.metric("trace.ops_ratio", f.trace_ops_ratio, "ratio");
}

AnytimeProbe::AnytimeProbe(const std::string& checkpoint, std::int64_t steps)
    : model_(sn::serve::ModelCache::global().acquire(checkpoint)
                 ->make_replica()),
      runner_(std::make_unique<sn::snn::AnytimeRunner>(*model_)),
      steps_(steps > 0 ? steps : runner_->time_steps()) {}

AnytimeProbe::~AnytimeProbe() = default;

double AnytimeProbe::run(const Tensor& x, SpanLog& spans, std::int64_t parent,
                         std::uint64_t request) {
  const std::int64_t run = spans.begin("anytime.run", parent, request);
  runner_->begin(x);
  for (std::int64_t t = 0; t < steps_; ++t) {
    const std::int64_t st = spans.begin("anytime.step", run, request);
    runner_->step();
    spans.end(st);
    step_s_.push_back(spans.seconds(st));
  }
  spans.end(run);
  return spans.seconds(run);
}

double AnytimeProbe::step_us() const { return median(step_s_) * 1e6; }

int AnytimeProbe::count_spikes(const std::vector<Tensor>& batches,
                               double* out) {
  sn::obs::SketchAccumulator sketch;
  sketch.configure(runner_->sketch_layers());
  runner_->set_sketch(&sketch);
  const int layers = static_cast<int>(sketch.num_layers());
  const int kept = std::min(layers, LayerFigures::kSpikingLayers);
  std::fill(out, out + LayerFigures::kSpikingLayers, 0.0);
  sn::obs::ActivitySketch act;
  double sample_steps = 0;
  for (const Tensor& x : batches) {
    runner_->run(x, steps_);
    for (std::int64_t r = 0; r < x.dim(0); ++r) {
      sketch.finalize(r, act);
      for (int l = 0; l < kept; ++l)
        out[l] += static_cast<double>(
            act.layers[static_cast<std::size_t>(l)].spike_count);
      sample_steps += static_cast<double>(steps_);
    }
  }
  runner_->set_sketch(nullptr);
  for (int l = 0; l < kept; ++l) out[l] /= sample_steps;
  return layers;
}

void measure_setup_layers(const Prepared& prep, SpanLog& spans,
                          const std::function<void()>& build,
                          LayerFigures& f) {
  std::vector<double> load_s, build_s;
  for (int r = 0; r < 5; ++r) {
    sn::serve::ModelCache::global().clear();
    const std::int64_t root = spans.begin("setup", -1, 0);
    for (const std::string& path : prep.checkpoint) {
      const std::int64_t sp = spans.begin("setup.load", root, 0);
      sn::serve::ModelCache::global().acquire(path);
      spans.end(sp);
      load_s.push_back(spans.seconds(sp));
    }
    const std::int64_t sp = spans.begin("setup.build", root, 0);
    build();
    spans.end(sp);
    build_s.push_back(spans.seconds(sp));
    spans.end(root);
  }
  f.load_ms = median(load_s) * 1e3;
  f.build_ms = median(build_s) * 1e3;
}

void write_spans(const Args& args, const SpanLog& spans, Report& report) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.json";
  const bool ok = spans.write(path);
  report.check(ok, "writing the span file");
  report.note("spans: " + std::to_string(spans.size()) + " written to " +
              path);
}

// ---- serving configuration -------------------------------------------------------

sn::serve::ServerConfig replica_config(std::int64_t max_batch,
                                       std::int64_t max_delay_us) {
  sn::serve::ServerConfig sc;
  sc.workers = 0;
  sc.batcher.max_batch = max_batch;
  sc.batcher.max_delay_us = max_delay_us;
  sc.supervisor.enabled = true;
  sc.supervisor.canary_interval_ms = 0;
  return sc;
}

sn::fleet::RouterConfig router_config(const Prepared& prep,
                                      std::int64_t max_batch,
                                      std::int64_t max_delay_us) {
  sn::fleet::RouterConfig rc;
  for (int c = 0; c < kNumCells; ++c) {
    sn::fleet::GroupConfig gc;
    gc.name = kCells[c].name;
    gc.role = kCells[c].role;
    gc.model_path = prep.checkpoint[c];
    gc.replicas = 1;
    gc.server = replica_config(max_batch, max_delay_us);
    rc.groups.push_back(gc);
  }
  rc.tenants.push_back({kTrustedTenant, sn::fleet::Threat::kTrusted, 0, 0});
  rc.tenants.push_back({kHostileTenant, sn::fleet::Threat::kHostile, 0, 0});
  rc.default_tenant.threat = sn::fleet::Threat::kTrusted;
  return rc;
}

}  // namespace perfbench
