// SNNSEC_HOT: the fast canary runs on the per-batch serving path — steady
// state must not allocate.
#include "serve/supervisor.hpp"

#include <cmath>
#include <cstring>

#include "obs/metrics.hpp"
#include "snn/anytime.hpp"
#include "util/checked.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace snnsec::serve {

using tensor::Shape;
using tensor::Tensor;

const char* to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::kHealthy:
      return "healthy";
    case ReplicaState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

void SupervisorConfig::validate() const {
  SNNSEC_CHECK(fast_canary_every >= 0,
               "SupervisorConfig: fast_canary_every must be >= 0");
  SNNSEC_CHECK(canary_interval_ms >= 0,
               "SupervisorConfig: canary_interval_ms must be >= 0");
  SNNSEC_CHECK(canary_batch >= 1, "SupervisorConfig: canary_batch must be >= 1");
  SNNSEC_CHECK(canary_tolerance >= 0.0 && std::isfinite(canary_tolerance),
               "SupervisorConfig: canary_tolerance must be finite and >= 0");
  SNNSEC_CHECK(heartbeat_timeout_ms >= 0,
               "SupervisorConfig: heartbeat_timeout_ms must be >= 0");
  SNNSEC_CHECK(max_respawns >= 0,
               "SupervisorConfig: max_respawns must be >= 0");
  SNNSEC_CHECK(governor_floor_steps >= 0,
               "SupervisorConfig: governor_floor_steps must be >= 0");
  SNNSEC_CHECK(governor_low_frac >= 0.0 && governor_high_frac <= 1.0 &&
                   governor_low_frac < governor_high_frac,
               "SupervisorConfig: governor watermarks must satisfy 0 <= low "
               "< high <= 1");
  retry.validate();
}

Supervisor::Supervisor(SupervisorConfig cfg,
                       const ModelCache::Artifact& artifact)
    : cfg_(cfg), time_steps_(artifact.config().time_steps) {
  cfg_.validate();
  floor_ = cfg_.governor_floor_steps > 0
               ? std::min(cfg_.governor_floor_steps, time_steps_)
               : std::max<std::int64_t>(1, (7 * time_steps_ + 7) / 8);
  const nn::LenetSpec& arch = artifact.arch();
  // The probe is a deterministic function of the checkpoint's structural
  // identity, so golden logits computed anywhere for this model agree.
  probe_ = Tensor(Shape{cfg_.canary_batch, arch.in_channels, arch.image_size,
                        arch.image_size});
  util::Rng rng(artifact.config_hash() ^ 0x9e3779b97f4a7c15ULL);
  rng.fill_uniform(probe_.data(), static_cast<std::size_t>(probe_.numel()),
                   0.0f, 1.0f);
  auto pristine = artifact.make_replica();
  golden_digest_ = weights_digest(pristine->parameters());
  snn::AnytimeRunner runner(*pristine);
  golden_logits_ = runner.run(probe_).clone();
  SNNSEC_LOG_INFO("serve: supervisor armed (fast canary every "
                  << cfg_.fast_canary_every << " batches, deep canary every "
                  << cfg_.canary_interval_ms << " ms, heartbeat timeout "
                  << cfg_.heartbeat_timeout_ms << " ms, governor floor "
                  << floor_ << "/" << time_steps_ << " steps)");
}

std::uint64_t Supervisor::weights_digest(
    const std::vector<nn::Parameter*>& params) {
  // FNV-1a over the raw float words, read two floats at a time into four
  // interleaved lanes: independent multiply chains instead of one serial
  // chain per float. Every lane step is a bijection of the lane state and
  // the final fold is a bijection in each lane, so any one flipped bit or
  // NaN overwrite provably moves the digest; each tensor's numel is folded
  // in too, so a truncated tensor moves it as well.
  constexpr std::uint64_t kBasis = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  constexpr std::int64_t kLanes = 4;
  std::uint64_t lane[kLanes] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  std::uint64_t sizes = kBasis;
  for (const nn::Parameter* p : params) {
    const float* d = p->value.data();
    const std::int64_t n = p->value.numel();
    const std::int64_t words = n / 2;
    std::int64_t w = 0;
    for (; w + kLanes <= words; w += kLanes)
      for (std::int64_t l = 0; l < kLanes; ++l) {
        std::uint64_t v = 0;
        std::memcpy(&v, d + 2 * (w + l), sizeof(v));
        lane[l] = (lane[l] ^ v) * kPrime;
      }
    for (; w < words; ++w) {
      std::uint64_t v = 0;
      std::memcpy(&v, d + 2 * w, sizeof(v));
      lane[w % kLanes] = (lane[w % kLanes] ^ v) * kPrime;
    }
    if (n % 2 != 0) {
      std::uint32_t v = 0;
      std::memcpy(&v, d + n - 1, sizeof(v));
      lane[words % kLanes] = (lane[words % kLanes] ^ v) * kPrime;
    }
    sizes = (sizes ^ static_cast<std::uint64_t>(n)) * kPrime;
  }
  // splitmix64's finalizer: invertible, and it spreads every lane bit over
  // the whole digest.
  const auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::uint64_t h = sizes;
  for (const std::uint64_t v : lane) h = mix(h ^ v);
  return h;
}

bool Supervisor::logits_ok(const Tensor& logits) const {
  if (logits.numel() != golden_logits_.numel()) return false;
  const float* a = logits.data();
  const float* g = golden_logits_.data();
  const std::int64_t n = logits.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double diff = std::fabs(static_cast<double>(a[i]) -
                                  static_cast<double>(g[i]));
    // Negated <= so a NaN diff (non-finite logit) fails at any tolerance.
    if (!(diff <= cfg_.canary_tolerance)) return false;
  }
  return true;
}

std::int64_t Supervisor::governed_steps(std::int64_t depth,
                                        std::int64_t capacity) const {
  if (!cfg_.governor || capacity <= 0) return time_steps_;
  const double frac =
      static_cast<double>(depth) / static_cast<double>(capacity);
  if (frac <= cfg_.governor_low_frac) return time_steps_;
  if (frac >= cfg_.governor_high_frac) return floor_;
  const double x = (frac - cfg_.governor_low_frac) /
                   (cfg_.governor_high_frac - cfg_.governor_low_frac);
  const auto cut = static_cast<std::int64_t>(
      std::lround(x * static_cast<double>(time_steps_ - floor_)));
  return time_steps_ - cut;
}

void Supervisor::note_fast_canary() {
  fast_canaries_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.fast_canaries", 1);
}

void Supervisor::note_deep_canary() {
  deep_canaries_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.deep_canaries", 1);
}

void Supervisor::note_canary_failure(const char* reason) {
  canary_failures_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.canary_failures", 1);
  SNNSEC_LOG_WARN("serve: canary failure: " << reason);
}

void Supervisor::note_quarantine() {
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.quarantines", 1);
}

void Supervisor::note_respawn() {
  respawns_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.respawns", 1);
}

void Supervisor::note_watchdog_trip() {
  watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.watchdog_trips", 1);
}

void Supervisor::note_retry() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.retries", 1);
}

void Supervisor::note_nonfinite() {
  nonfinite_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.nonfinite", 1);
}

void Supervisor::note_degraded() {
  degraded_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.health.degraded", 1);
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.fast_canaries = fast_canaries_.load(std::memory_order_relaxed);
  s.deep_canaries = deep_canaries_.load(std::memory_order_relaxed);
  s.canary_failures = canary_failures_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.respawns = respawns_.load(std::memory_order_relaxed);
  s.watchdog_trips = watchdog_trips_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.nonfinite = nonfinite_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace snnsec::serve
