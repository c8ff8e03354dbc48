// Supervisor: the health-check policy behind serve::Server's self-healing
// runtime. The Server owns the replicas and threads; this class owns the
// *judgments* — what "healthy" means, when to degrade, and the monotonic
// serve.health.* counters — so every decision is a pure, testable function
// of observed state.
//
// Two canary tiers, both compared against golden state derived from the
// pristine ModelCache artifact at construction:
//
//   fast canary (every `fast_canary_every` batches, on the replica's own
//     serving thread): an FNV-1a digest over every parameter float vs the
//     golden digest — catching weight bit-flips and NaN storms in one cache
//     sweep (~microseconds) — plus a scan for armed LifLayer spike faults.
//     Cheap enough to run per batch, so detection latency is ~one batch.
//
//   deep canary (every `canary_interval_ms`): run the pinned probe batch
//     through the replica's own AnytimeRunner and compare logits against
//     the golden logits elementwise (NaN-safe: a non-finite logit always
//     fails). The probe is derived deterministically from the checkpoint's
//     config hash — the same structural fingerprint the checkpoint's
//     architecture_fingerprint validation chain is built on — so every
//     server supervising a given checkpoint shares one probe/golden pair.
//
// A replica that fails either canary is quarantined and respawned in place
// from the artifact payload; requests it had in flight are re-run on the
// healed replica under the bounded util::RetryPolicy. The overload
// governor trades accuracy for headroom before the batcher sheds: as queue
// depth climbs between the low and high watermarks, the per-batch step
// budget ramps from the full window T down to the floor (default: the
// t≈(7/8)T accuracy cliff observed on the truncation curve).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "nn/parameter.hpp"
#include "serve/model_cache.hpp"
#include "tensor/tensor.hpp"
#include "util/retry.hpp"

namespace snnsec::serve {

/// Health state of a server's replica. A quarantined replica is respawned
/// from the artifact before it runs another batch.
enum class ReplicaState : std::uint8_t {
  kHealthy,      ///< serving; canaries green
  kQuarantined,  ///< canary diverged / non-finite output / missed
                 ///< heartbeat; heal before reuse
};

const char* to_string(ReplicaState state);

struct SupervisorConfig {
  bool enabled = false;  ///< master switch; everything below is inert off

  /// Batches between fast canaries (weights digest + armed-fault scan) on
  /// each replica's serving thread. 0 disables the fast tier.
  std::int64_t fast_canary_every = 1;
  /// Milliseconds between deep canaries (probe inference vs golden logits)
  /// per replica. Deep canaries run only in real idle windows — empty
  /// admission queue AND a short batch-free grace period — so the probe
  /// never lands in request tail latency (under closed-loop traffic the
  /// queue transiently empties between batches); under sustained load the
  /// per-batch fast canary carries detection. 0 disables the deep tier.
  std::int64_t canary_interval_ms = 500;
  std::int64_t canary_batch = 1;  ///< probe batch size
  /// Max |logit - golden| tolerated elementwise. The compare is NaN-safe:
  /// a non-finite logit fails at any tolerance.
  double canary_tolerance = 0.0;

  /// Watchdog: a batch that runs this long without a heartbeat (one per
  /// time step) quarantines the replica. The batch still finishes on its
  /// calling thread; the replica is respawned before the next batch.
  /// 0 disables the watchdog.
  std::int64_t heartbeat_timeout_ms = 1000;
  /// Respawn budget per server; once spent, the server stops healing and
  /// keeps serving with supervision disabled.
  std::int64_t max_respawns = 16;
  /// Request retry bound. Only max_attempts is consulted — a retried
  /// request re-enters the batcher immediately, it never sleeps.
  util::RetryPolicy retry{};

  /// Overload governor (graceful degradation before shedding).
  bool governor = true;
  /// Step floor the governor degrades toward. 0 = ceil(7T/8), the edge of
  /// the accuracy cliff on BENCH_serve.json's truncation curve.
  std::int64_t governor_floor_steps = 0;
  double governor_low_frac = 0.25;   ///< queue depth/capacity: start degrading
  double governor_high_frac = 0.75;  ///< queue depth/capacity: floor reached

  void validate() const;
};

/// Snapshot of the supervisor's monotonic counters.
struct SupervisorStats {
  std::int64_t fast_canaries = 0;
  std::int64_t deep_canaries = 0;
  std::int64_t canary_failures = 0;
  std::int64_t quarantines = 0;
  std::int64_t respawns = 0;
  std::int64_t watchdog_trips = 0;
  std::int64_t retries = 0;   ///< requests re-enqueued after a bad replica
  std::int64_t nonfinite = 0; ///< finalizations rejected for non-finite logits
  std::int64_t degraded = 0;  ///< requests the governor step-capped
};

class Supervisor {
 public:
  /// Derives the golden state (probe batch, golden logits, golden weights
  /// digest) from the pristine artifact via a throwaway replica.
  Supervisor(SupervisorConfig cfg, const ModelCache::Artifact& artifact);

  const SupervisorConfig& config() const { return cfg_; }

  /// The pinned probe batch [canary_batch, C, H, W].
  const tensor::Tensor& probe() const { return probe_; }
  const tensor::Tensor& golden_logits() const { return golden_logits_; }
  std::uint64_t golden_weights_digest() const { return golden_digest_; }

  /// Digest of every parameter float in parameter-stack order, plus each
  /// tensor's element count: FNV-1a in four parallel lanes (the fast canary
  /// pays it on every batch). Any single changed float word changes it.
  static std::uint64_t weights_digest(
      const std::vector<nn::Parameter*>& params);

  /// Deep-canary verdict: elementwise |logits - golden| <= tolerance, with
  /// non-finite values always failing.
  bool logits_ok(const tensor::Tensor& logits) const;

  /// Governor: per-batch step budget as a function of queue pressure.
  /// Full window at/below the low watermark, the floor at/above the high
  /// watermark, linear ramp between. Pure and deterministic.
  std::int64_t governed_steps(std::int64_t depth, std::int64_t capacity) const;
  std::int64_t floor_steps() const { return floor_; }

  int max_attempts() const { return cfg_.retry.max_attempts; }

  // Event sinks — bump the local counter and the serve.health.* metric.
  void note_fast_canary();
  void note_deep_canary();
  void note_canary_failure(const char* reason);
  void note_quarantine();
  void note_respawn();
  void note_watchdog_trip();
  void note_retry();
  void note_nonfinite();
  void note_degraded();

  SupervisorStats stats() const;

 private:
  SupervisorConfig cfg_;
  std::int64_t time_steps_;
  std::int64_t floor_;
  tensor::Tensor probe_;
  tensor::Tensor golden_logits_;
  std::uint64_t golden_digest_ = 0;

  std::atomic<std::int64_t> fast_canaries_{0};
  std::atomic<std::int64_t> deep_canaries_{0};
  std::atomic<std::int64_t> canary_failures_{0};
  std::atomic<std::int64_t> quarantines_{0};
  std::atomic<std::int64_t> respawns_{0};
  std::atomic<std::int64_t> watchdog_trips_{0};
  std::atomic<std::int64_t> retries_{0};
  std::atomic<std::int64_t> nonfinite_{0};
  std::atomic<std::int64_t> degraded_{0};
};

}  // namespace snnsec::serve
