// AnytimeRunner: incremental (per-timestep) forward pass for a
// SpikingClassifier, the engine behind deadline-aware "anytime" serving.
//
// The one-shot SpikingClassifier::logits() unrolls the whole observation
// window T before decoding. For serving, the time window is a structural
// knob we can cut short: the LiReadout decode is a running max over the
// membrane trace, so logits accumulated after t steps are exactly the
// logits the full forward would produce if the window were t — a request
// with a deadline can stop at t < T and still return a well-defined
// (truncated) prediction.
//
// The runner walks the model's Sequential stack once at construction and
// compiles it into a flat stage table (scale / conv / pool / flatten /
// linear are stateless per step; LIF / LI-readout carry explicit
// per-neuron state across step() calls). All activations and state live in
// persistent per-stage tensors that are reallocated only when the batch
// geometry changes, so a warm runner performs zero heap allocations per
// step — the property bench_serve asserts with its operator-new hook.
//
// Bit-identity with the one-shot path: every stage reuses the exact
// per-step math of the corresponding layer (lif_step / li_step
// / the layers' own forward_into entry points), and each conv/linear runs
// the kernel its input kind fixed at construction — dense GEMM or the
// event-accumulate kernel — identically in both paths (DESIGN.md §14), so
// the choice never differs between one-shot and stepped execution. The LIF
// recurrences are elementwise and the event kernel computes each output row
// independently, so stepping time outside the layers reorders no
// floating-point operation. Spike slabs feeding an event-input Linear are
// compressed ONCE where they are produced (the LIF stage) and handed over
// as event lists; building them from the identical slab values is what
// keeps this bit-identical to the Linear's own internal build.
// tests/test_serve_anytime.cpp checks logits()@t==T against
// SpikingClassifier::logits() bit-for-bit.
//
// Not supported (throws at construction / begin): Poisson encoders (fresh
// RNG per forward — a step-by-step replay would not reproduce the one-shot
// spike trains) and, by default, armed SpikeFaults (the fault post-pass
// lives in LifLayer::forward, which this runner bypasses). Chaos mode —
// AnytimeRunner(model, /*allow_faults=*/true) — lifts the fault rejection
// and replays each armed layer's SpikeFault as a per-step post-pass with
// the exact per-slot semantics of LifLayer::apply_spike_fault (identical
// stuck masks; drop/jitter gated per spike; one-step jitter carried into
// the next slab). Faulted runs are deterministic per (seed, input) but NOT
// bit-identical to the one-shot faulted forward: the one-shot pass draws
// drop/jitter slot-major over the whole window, while online stepping must
// draw time-major. The healthy path is untouched — fault state is only
// allocated when a begin() observes an armed fault.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/sketch.hpp"
#include "snn/lif_layer.hpp"
#include "snn/spiking_network.hpp"
#include "tensor/spike_events.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace snnsec::snn {

class AnytimeRunner {
 public:
  /// Compiles `model`'s layer stack into a stage table. The model must be
  /// a constant-current-encoded spiking stack ending in LiReadout; throws
  /// util::Error otherwise. The runner borrows the model (weights are read
  /// through the live layers each step) — it must outlive the runner.
  /// `allow_faults` opts into chaos mode: armed LifLayer spike faults are
  /// replayed per step instead of rejected (see the header comment).
  explicit AnytimeRunner(SpikingClassifier& model, bool allow_faults = false);

  /// Start a new request: latch the input batch [N, C, H, W] and reset all
  /// neuron state. Rejects armed spike faults on any LIF layer unless the
  /// runner was constructed with allow_faults; with it, each armed layer's
  /// fault spec is latched here for the lifetime of the request.
  void begin(const tensor::Tensor& x);

  bool allow_faults() const { return allow_faults_; }

  /// Advance the whole stack by one time step and fold the readout trace
  /// into the running-max logits. Requires begin() and !done().
  void step();

  /// Accumulated logits [N, classes] after steps_done() steps. At
  /// steps_done() == time_steps() this is bit-identical to the one-shot
  /// SpikingClassifier::logits(). Rows are -inf before the first step.
  const tensor::Tensor& logits() const { return logits_; }

  std::int64_t steps_done() const { return t_; }
  bool done() const { return t_ >= time_steps_; }
  std::int64_t time_steps() const { return time_steps_; }
  /// Batch size of the current request (0 before the first begin()).
  std::int64_t batch() const { return batch_; }

  /// Convenience: begin(x) then step() until done() or `max_steps` steps
  /// (0 = full window). Returns the accumulated logits.
  const tensor::Tensor& run(const tensor::Tensor& x,
                            std::int64_t max_steps = 0);

  /// Spiking layers in stack order ("lif0".."lifK" with each layer's Vth) —
  /// the geometry a SketchAccumulator must be configured with to attach.
  const std::vector<obs::SketchLayerInfo>& sketch_layers() const {
    return sketch_layers_;
  }

  /// Attach (or with nullptr detach) a telemetry sketch. While attached,
  /// begin() opens a batch on it and every step() folds each spiking
  /// layer's (spikes, pre-reset membrane) slab into it, in stack-then-time
  /// order — the bit-identity contract in obs/sketch.hpp. The accumulator
  /// must already be configured with sketch_layers(); it is borrowed, not
  /// owned. Attaching changes no arithmetic on the forward path.
  void set_sketch(obs::SketchAccumulator* sketch);
  obs::SketchAccumulator* sketch() const { return sketch_; }

 private:
  enum class StageKind : std::uint8_t {
    kScale,
    kLif,
    kConv,
    kAvgPool,
    kFlatten,
    kLinear,
    kReadout,
  };

  struct Stage {
    StageKind kind;
    nn::Layer* layer = nullptr;
    int sketch_index = -1;   ///< position in sketch_layers_ (LIF only)
    tensor::Tensor out;      ///< this stage's activation for the current step
    tensor::Tensor state_i;  ///< synaptic current (LIF/readout)
    tensor::Tensor state_v;  ///< membrane potential (LIF/readout)
    tensor::Tensor scratch;  ///< pre-reset membrane (v_decayed) sink
    // Event handoff (wired at construction, never data-dependent): a
    // spiking stage with build_events compresses its slab once per step;
    // the consuming Linear stage reads it via event_source. The EventRows
    // views workspace memory scoped to the current step() call only.
    bool build_events = false;
    int event_source = -1;  ///< producer stage index (kLinear consumers)
    tensor::EventRows events;
    // Chaos mode (allow_faults) only — all empty on the healthy path.
    SpikeFault fault;               ///< latched at begin() (LIF stages)
    bool fault_active = false;      ///< fault.any() as of the last begin()
    std::vector<std::uint8_t> stuck;  ///< per-slot stuck mask (0/1/2)
    tensor::Tensor carry;           ///< spikes jittered into the next step
    util::Rng fault_rng{0};         ///< drop/jitter stream for this request
  };

  void apply_stage_fault(Stage& s, std::int64_t n);

  SpikingClassifier& model_;
  std::int64_t time_steps_;
  std::int64_t num_classes_;
  std::vector<Stage> stages_;
  std::vector<obs::SketchLayerInfo> sketch_layers_;
  obs::SketchAccumulator* sketch_ = nullptr;  ///< borrowed; may be null
  tensor::Tensor input_;   ///< latched request batch [N, C, H, W]
  tensor::Tensor logits_;  ///< running-max decode [N, classes]
  std::int64_t batch_ = 0;
  std::int64_t t_ = 0;
  bool began_ = false;
  bool allow_faults_ = false;
};

}  // namespace snnsec::snn
