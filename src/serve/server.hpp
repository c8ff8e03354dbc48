// Server: in-process, batched, deadline-aware SNN inference runtime.
//
// Request path:
//   infer() -> MicroBatcher admission (shed at capacity) -> micro-batch
//   formed on size/delay -> the replica's AnytimeRunner steps the batch
//   through the time window, finalizing each request as its own step
//   budget or wall-clock deadline is reached -> result delivered to the
//   caller.
//
// Execution model: there are no resident threads. Submitting threads drive
// batch execution themselves, one at a time under an execution lock: a
// caller whose request is still pending takes the lock, pops the next batch
// (which may hold other callers' requests) and runs it on the server's one
// model replica (stamped from the shared ModelCache artifact) until its own
// request has been answered. Concurrency across cores comes from running
// several Servers, as the fleet Router does with one replica per executor.
//
// Supervision (ServerConfig::supervisor.enabled): a serve::Supervisor turns
// the server self-healing. The replica is health-checked by fast (weights
// digest + armed-fault scan, per batch) and deep (pinned probe vs golden
// logits, in idle windows) canaries; a replica that diverges, emits
// non-finite logits, or stalls mid-batch is quarantined and respawned in
// place from the pristine ModelCache artifact, while its in-flight requests
// are transparently re-enqueued under the bounded retry policy (slot epochs
// make stale deliveries no-ops, so a request is answered exactly once). A
// watchdog thread quarantines a batch that misses its heartbeat; the stalled
// batch still finishes on its calling thread, and the replica is healed
// before the next batch. Under queue pressure the overload governor steps
// the per-batch time-step budget down toward the accuracy cliff before the
// batcher sheds. See serve/supervisor.hpp for the policy and DESIGN.md §13
// for the protocol.
//
// Anytime semantics: a request's logits after t steps are bit-identical to
// evaluating the same weights with window T' = t (running-max decode), so
// deadline truncation degrades accuracy gracefully instead of shedding —
// the paper's structural time window T acting as a load-shedding knob.
//
// The steady-state request path (warm server, fixed batch geometry)
// performs zero heap allocations end to end — with supervision on, the
// per-batch fast canary is an allocation-free parameter sweep and the deep
// canary runs on a prewarmed dedicated runner; bench_serve and bench_chaos
// assert this with their operator-new hooks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/envelope.hpp"
#include "obs/sketch.hpp"
#include "serve/batcher.hpp"
#include "serve/model_cache.hpp"
#include "serve/request.hpp"
#include "serve/supervisor.hpp"
#include "snn/anytime.hpp"
#include "snn/lif_layer.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::serve {

/// What to do with a request whose anomaly score crosses the threshold.
enum class DetectPolicy : std::uint8_t {
  kObserve,  ///< annotate + count only; the prediction is still served
  kReject,   ///< result status becomes kFlagged (prediction kept for
             ///< forensics, infer() returns false)
  kReroute,  ///< within one Server this behaves like kObserve (the result
             ///< is served, flagged); the fleet Router escalates flagged
             ///< results to the hardened high-Vth group and returns that
             ///< cell's prediction instead (see fleet/router.hpp)
};

const char* to_string(DetectPolicy policy);

/// Handed to the chaos hook at the start of every batch, on the thread that
/// is about to execute it. The model pointer is the live replica — hooks
/// may corrupt weights, arm spike faults, or stall to exercise the
/// supervisor. Test/bench machinery; never set in production configs.
struct ChaosContext {
  std::int64_t batch_id = 0;
  std::int64_t respawns = 0;  ///< respawns this replica has consumed so far
  snn::SpikingClassifier* model = nullptr;
};
using ChaosHook = std::function<void(const ChaosContext&)>;

struct ServerConfig {
  std::string model_path;  ///< checkpoint, loaded via ModelCache::global()
  /// Must be 0: resident worker threads were removed and callers always
  /// drive batches (see "Execution model" above); the constructor rejects
  /// any other value. Kept only because perfbench still assigns it; the
  /// next change to perfbench deletes the field.
  std::int64_t workers = 0;
  BatcherConfig batcher;
  /// A deadline never truncates below this many time steps: the first
  /// steps of the window carry most of the readout signal, and a 0-step
  /// "prediction" would be the -inf init.
  std::int64_t min_steps = 1;
  /// Applied when a request carries deadline_us == 0. 0 = no deadline.
  std::int64_t default_deadline_us = 0;

  /// Online adversarial detection (off unless an envelope is provided).
  /// Path to an obs::ActivityEnvelope calibrated on clean traffic for this
  /// model (snnsec_calibrate). A missing/corrupt/foreign-model file logs a
  /// warning and disables detection rather than failing startup.
  std::string envelope_path;
  /// Pre-loaded envelope (tests/benches); takes precedence over the path.
  std::shared_ptr<const obs::ActivityEnvelope> envelope;
  DetectPolicy detect_policy = DetectPolicy::kObserve;
  /// Anomaly z-score at which a request is flagged. Must be finite and
  /// >= 0 (validated at construction).
  double flag_threshold = 4.0;

  /// Replica supervision / self-healing (see serve/supervisor.hpp).
  SupervisorConfig supervisor;
  /// Chaos mode: construct request runners with allow_faults so armed
  /// LifLayer spike faults are replayed per step instead of rejected.
  bool allow_faults = false;
  /// Fault-injection hook for the chaos harness (see ChaosContext).
  ChaosHook chaos_on_batch;
};

/// Monotonic counters for tests and ops dashboards (mirrored into
/// src/obs metrics under serve.* / serve.health.*).
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t errors = 0;
  std::int64_t truncated = 0;
  std::int64_t batches = 0;
  std::int64_t flagged = 0;  ///< detector fired (either policy)
  // Supervision (all zero when the supervisor is off).
  std::int64_t canary_failures = 0;
  std::int64_t quarantines = 0;
  std::int64_t respawns = 0;
  std::int64_t watchdog_trips = 0;
  std::int64_t retries = 0;
  std::int64_t degraded = 0;
};

class Server {
 public:
  /// Load cfg.model_path through the global ModelCache.
  explicit Server(ServerConfig cfg);
  /// Serve an already-loaded artifact (cfg.model_path is ignored).
  Server(ServerConfig cfg, std::shared_ptr<const ModelCache::Artifact> model);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Blocking single-image inference: `x` is [C, H, W] or [1, C, H, W].
  /// Returns true when `out.status == kOk`. Safe to call from any number
  /// of threads; each call occupies one admission slot until it returns.
  /// Non-finite pixels are rejected before admission (status kError).
  bool infer(const tensor::Tensor& x, const RequestOptions& opt,
             InferResult& out);

  /// Stop admitting and join the supervisor thread; requests already
  /// admitted still drain through their callers. Idempotent; the destructor
  /// calls it.
  void stop();

  ServerStats stats() const;
  const snn::SnnConfig& model_config() const { return artifact_->config(); }
  std::int64_t time_steps() const;
  std::int64_t num_classes() const;

  /// True when an envelope is installed and every request is being scored.
  bool detector_ready() const { return envelope_ != nullptr; }
  /// The installed envelope (nullptr when detection is off).
  const obs::ActivityEnvelope* envelope() const { return envelope_.get(); }

  /// The supervisor (nullptr when supervision is off).
  const Supervisor* supervisor() const { return sup_.get(); }

 private:
  /// Per-admission-slot request state, parallel to the batcher's slot ring.
  struct Slot {
    tensor::Tensor input;  ///< latched image [1, C, H, W]
    RequestOptions opt;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;  ///< epoch = no deadline
    bool has_deadline = false;
    InferResult* out = nullptr;
    bool done = false;  ///< guarded by m; its caller polls it in drive_inline
    /// Retry generation. An executor latches the value at batch formation
    /// and may deliver only while it still matches; a requeue bumps it, so
    /// a stale (quarantined) executor's delivery is a no-op.
    std::atomic<std::int64_t> epoch{0};
    std::atomic<std::int64_t> attempts{0};  ///< executions started
    std::mutex m;
  };

  /// The execution context: the model replica + runner, the reusable batch
  /// buffers, and the supervision state heal() rebuilds. Touched only under
  /// inline_m_, except for the atomics the watchdog reads.
  struct Replica {
    std::unique_ptr<snn::SpikingClassifier> model;
    std::unique_ptr<snn::AnytimeRunner> runner;
    tensor::Tensor batch_input;            ///< [B, C, H, W], reused
    std::vector<std::int64_t> slots;       ///< popped slot indices
    std::vector<std::int64_t> budget;      ///< per-request step caps
    std::vector<unsigned char> finalized;  ///< per-request done flags
    obs::SketchAccumulator sketch;         ///< attached when detecting
    obs::ActivitySketch sketch_out;        ///< reused finalize buffer
    // Supervision state (inert when the supervisor is off).
    std::unique_ptr<snn::AnytimeRunner> canary_runner;  ///< deep canary only
    std::vector<nn::Parameter*> params;    ///< cached for the weights digest
    std::vector<snn::LifLayer*> lifs;      ///< cached for the fault scan
    std::vector<std::int64_t> epochs;      ///< per-row latched slot epochs
    std::vector<unsigned char> degraded;   ///< per-row governor-capped flag
    std::atomic<ReplicaState> state{ReplicaState::kHealthy};
    std::atomic<bool> busy{false};         ///< inside execute_batch
    std::atomic<std::int64_t> hb_ms{0};    ///< last heartbeat (ms since start)
    std::atomic<std::int64_t> last_canary_ms{0};
    std::atomic<std::int64_t> current_batch{-1};
    std::atomic<bool> supervision_disabled{false};
    std::int64_t respawns = 0;              ///< under inline_m_
    std::int64_t batches_since_canary = 0;  ///< under inline_m_
    std::int64_t last_trip_batch = -1;      ///< supervisor-thread only
  };

  /// (Re)build the replica's model, runners and supervision caches from the
  /// artifact. Returns the boot-canary verdict (true when unsupervised).
  bool stamp_replica();
  void execute_batch(std::int64_t n);
  void finalize(Slot& s, std::int64_t row, std::int64_t steps,
                std::int64_t batch_size,
                std::chrono::steady_clock::time_point exec_start);
  void deliver_error(Slot& s, const char* what, std::int64_t batch_size,
                     std::int64_t latched_epoch);
  void drive_inline(Slot& own);
  // Supervision internals. maintain/fast_canary/deep_canary/heal run under
  // inline_m_, on a submitting thread or on the supervisor thread.
  void maintain();
  void fast_canary();
  void deep_canary();
  void heal();
  void quarantine(const char* reason);
  /// Re-enqueue the request in `slot_idx` for another attempt (bumping its
  /// epoch), or deliver a final error when the retry budget is exhausted.
  /// No-op when the request was already delivered or its epoch moved on
  /// from `latched_epoch`.
  void retry_slot(std::int64_t slot_idx, std::int64_t latched_epoch,
                  const char* why, std::int64_t batch_size);
  void supervise_loop();
  std::int64_t now_ms() const;

  ServerConfig cfg_;
  std::shared_ptr<const ModelCache::Artifact> artifact_;
  std::shared_ptr<const obs::ActivityEnvelope> envelope_;
  /// Envelope age at server start + a steady-clock origin, so the
  /// calibration-staleness gauge needs no wall-clock call on the hot path.
  double detect_age_base_s_ = 0.0;
  std::chrono::steady_clock::time_point start_;
  MicroBatcher batcher_;
  std::vector<std::unique_ptr<Slot>> slots_;
  Replica rep_;
  std::mutex inline_m_;  ///< serializes batch execution on rep_

  std::unique_ptr<Supervisor> sup_;  ///< null when supervision is off
  std::thread sup_thread_;
  std::atomic<bool> sup_stop_{false};
  /// ms-since-start of the last batch completion: the deep canary requires
  /// a real idle window (empty queue AND no recent batch), because under
  /// closed-loop traffic the queue transiently empties between batches and
  /// a probe in that gap lands straight in request tail latency.
  std::atomic<std::int64_t> last_batch_end_ms_{0};

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> truncated_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> flagged_{0};
};

}  // namespace snnsec::serve
