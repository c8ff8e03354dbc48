// SNNSEC_HOT: per-timestep serving path — steady state must not allocate.
#include "snn/anytime.hpp"

#include <algorithm>
#include <limits>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "snn/encoder.hpp"
#include "snn/li_readout.hpp"
#include "snn/lif_layer.hpp"
#include "util/checked.hpp"
#include "util/workspace.hpp"

namespace snnsec::snn {

using tensor::Shape;
using tensor::Tensor;

namespace {

// Dim-wise geometry compare so a warm steady state never reallocates.
void ensure_like(Tensor& t, const Tensor& ref) {
  if (t.ndim() == ref.ndim()) {
    bool same = true;
    for (std::int64_t d = 0; d < ref.ndim(); ++d)
      if (t.dim(d) != ref.dim(d)) same = false;
    if (same) return;
  }
  t = Tensor(ref.shape());
}

void ensure_flat(Tensor& t, std::int64_t n) {
  if (t.ndim() == 1 && t.dim(0) == n) return;
  t = Tensor(Shape{n});
}

void ensure_2d(Tensor& t, std::int64_t rows, std::int64_t cols) {
  if (t.ndim() == 2 && t.dim(0) == rows && t.dim(1) == cols) return;
  t = Tensor(Shape{rows, cols});
}

}  // namespace

AnytimeRunner::AnytimeRunner(SpikingClassifier& model, bool allow_faults)
    : model_(model),
      time_steps_(model.time_steps()),
      num_classes_(model.num_classes()),
      allow_faults_(allow_faults) {
  nn::Sequential& net = model_.net();
  SNNSEC_CHECK(net.size() > 0, "AnytimeRunner: empty network");
  // One-time stage-table build at construction, never on the per-step path.
  // NOLINTNEXTLINE(snnsec-hot-alloc): construction-time container growth
  stages_.reserve(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Layer& layer = net.layer(i);
    const std::string_view kind = layer.kind();
    Stage stage;
    stage.layer = &layer;
    if (kind == "Scale") {
      stage.kind = StageKind::kScale;
    } else if (kind == "LifLayer") {
      auto& lif = static_cast<LifLayer&>(layer);
      SNNSEC_CHECK(lif.time_steps() == time_steps_,
                   "AnytimeRunner: LifLayer T=" << lif.time_steps()
                                                << " != model T="
                                                << time_steps_);
      stage.kind = StageKind::kLif;
      stage.sketch_index = static_cast<int>(sketch_layers_.size());
      // NOLINTNEXTLINE(snnsec-hot-alloc): construction-time container growth
      sketch_layers_.push_back(obs::SketchLayerInfo{
          "lif" + std::to_string(sketch_layers_.size()),
          static_cast<double>(lif.params().v_th)});
    } else if (kind == "Conv2d") {
      stage.kind = StageKind::kConv;
    } else if (kind == "AvgPool2d") {
      stage.kind = StageKind::kAvgPool;
    } else if (kind == "Flatten") {
      stage.kind = StageKind::kFlatten;
    } else if (kind == "Linear") {
      stage.kind = StageKind::kLinear;
    } else if (kind == "LiReadout") {
      auto& readout = static_cast<LiReadout&>(layer);
      SNNSEC_CHECK(readout.time_steps() == time_steps_,
                   "AnytimeRunner: LiReadout T=" << readout.time_steps()
                                                 << " != model T="
                                                 << time_steps_);
      SNNSEC_CHECK(i + 1 == net.size(),
                   "AnytimeRunner: LiReadout must be the final layer");
      stage.kind = StageKind::kReadout;
    } else if (kind == "PoissonEncoder") {
      SNNSEC_CHECK(false,
                   "AnytimeRunner: Poisson encoding draws fresh spikes per "
                   "forward; anytime serving requires the deterministic "
                   "constant-current encoder");
    } else {
      SNNSEC_CHECK(false, "AnytimeRunner: unsupported layer kind '"
                              << kind << "' at position " << i);
    }
    // NOLINTNEXTLINE(snnsec-hot-alloc): construction-time container growth
    stages_.push_back(std::move(stage));
  }
  SNNSEC_CHECK(stages_.back().kind == StageKind::kReadout,
               "AnytimeRunner: network must end in LiReadout");
  // Wire the producer -> consumer event handoff: a spiking stage whose
  // downstream GEMM (looking past the pure-reshape Flatten) is a Linear
  // built with event inputs compresses its slab once per step; the
  // Linear consumes the lists instead of re-scanning the dense slab. This
  // is topology-derived at construction — which stages hand off never
  // depends on the data flowing through them.
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].kind != StageKind::kLinear) continue;
    const auto& lin = static_cast<const nn::Linear&>(*stages_[i].layer);
    if (lin.input_kind() != nn::InputKind::kEvents) continue;
    std::size_t j = i;
    while (j > 0 && stages_[j - 1].kind == StageKind::kFlatten) --j;
    if (j == 0) continue;
    if (stages_[j - 1].kind == StageKind::kLif) {
      stages_[j - 1].build_events = true;
      stages_[i].event_source = static_cast<int>(j - 1);
    }
  }
}

void AnytimeRunner::begin(const Tensor& x) {
  SNNSEC_CHECK(x.ndim() == 4,
               "AnytimeRunner::begin: expects [N, C, H, W], got "
                   << x.shape().to_string());
  for (Stage& s : stages_) {
    if (s.kind != StageKind::kLif) continue;
    const auto& lif = static_cast<const LifLayer&>(*s.layer);
    if (allow_faults_) {
      // Chaos mode: latch the armed spec for this request. The per-slot
      // state (stuck mask, jitter carry) is sized lazily at the first step,
      // once the stage's activation geometry is known.
      s.fault = lif.spike_fault();
      s.fault_active = s.fault.any();
      continue;
    }
    SNNSEC_CHECK(!lif.spike_fault().any(),
                 "AnytimeRunner: " << lif.name()
                                   << " has an armed spike fault; the fault "
                                      "post-pass runs in LifLayer::forward, "
                                      "which anytime stepping bypasses "
                                      "(construct with allow_faults to opt "
                                      "into the per-step chaos replay)");
  }
  ensure_like(input_, x);
  std::copy(x.data(), x.data() + x.numel(), input_.data());
  batch_ = x.dim(0);
  ensure_2d(logits_, batch_, num_classes_);
  logits_.fill(-std::numeric_limits<float>::infinity());
  t_ = 0;
  began_ = true;
  if (sketch_ != nullptr) sketch_->begin(batch_);
}

void AnytimeRunner::set_sketch(obs::SketchAccumulator* sketch) {
  if (sketch != nullptr) {
    SNNSEC_CHECK(sketch->configured(),
                 "AnytimeRunner::set_sketch: accumulator not configured");
    SNNSEC_CHECK(sketch->num_layers() ==
                     static_cast<std::int64_t>(sketch_layers_.size()),
                 "AnytimeRunner::set_sketch: accumulator tracks "
                     << sketch->num_layers() << " layers, model has "
                     << sketch_layers_.size());
  }
  sketch_ = sketch;
}

// SNNSEC_HOT entry: one simulated timestep, the serving inner loop.
void AnytimeRunner::step() {
  SNNSEC_CHECK(began_, "AnytimeRunner::step before begin");
  SNNSEC_CHECK(!done(), "AnytimeRunner::step past the time window T="
                            << time_steps_);
  // Constant-current encoding replays the same latched image every step, so
  // the chain below is exactly one time-slab of the unrolled forward.
  // Event lists built by spiking stages live in this arena scope until the
  // consuming Linear has run; nested scopes opened by conv/linear stages
  // rewind only to their own marks, so the handoff stays valid all step.
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope slab_scope(ws);
  const Tensor* cur = &input_;
  for (Stage& s : stages_) {
    switch (s.kind) {
      case StageKind::kScale: {
        const float factor = static_cast<const nn::Scale&>(*s.layer).factor();
        ensure_like(s.out, *cur);
        const float* px = cur->data();
        float* py = s.out.data();
        const std::int64_t n = cur->numel();
        for (std::int64_t k = 0; k < n; ++k) py[k] = px[k] * factor;
        break;
      }
      case StageKind::kLif: {
        const auto& lif = static_cast<const LifLayer&>(*s.layer);
        const std::int64_t n = cur->numel();
        ensure_flat(s.state_i, n);
        ensure_flat(s.state_v, n);
        ensure_flat(s.scratch, n);
        if (t_ == 0) {
          s.state_i.zero_();
          s.state_v.zero_();
        }
        ensure_like(s.out, *cur);
        lif_step(lif.params(), n, cur->data(), s.state_i.data(),
                 s.state_v.data(), s.out.data(), s.scratch.data());
        if (s.fault_active) apply_stage_fault(s, n);
        if (sketch_ != nullptr)
          sketch_->accumulate(s.sketch_index, s.out.data(), s.scratch.data(),
                              n);
        // Compress AFTER the fault post-pass — the consumer must see the
        // same slab values the dense path would.
        if (s.build_events) {
          const std::int64_t rows = s.out.dim(0);
          const std::int64_t cols = n / rows;
          s.events = tensor::build_event_rows(s.out.data(), cols, rows, cols,
                                              ws);
        }
        break;
      }
      case StageKind::kConv: {
        static_cast<nn::Conv2d&>(*s.layer).forward_into(*cur, s.out,
                                                        nn::Mode::kEval);
        break;
      }
      case StageKind::kAvgPool: {
        static_cast<const nn::AvgPool2d&>(*s.layer).forward_into(*cur, s.out);
        break;
      }
      case StageKind::kFlatten: {
        const std::int64_t rows = cur->dim(0);
        ensure_2d(s.out, rows, cur->numel() / rows);
        std::copy(cur->data(), cur->data() + cur->numel(), s.out.data());
        break;
      }
      case StageKind::kLinear: {
        auto& lin = static_cast<nn::Linear&>(*s.layer);
        if (s.event_source >= 0)
          // Consume the event lists the producing spiking stage built this
          // step — same slab values, same build order, so the result is
          // bit-identical to lin.forward_into on the dense slab.
          lin.forward_into_events(
              stages_[static_cast<std::size_t>(s.event_source)].events,
              s.out);
        else
          lin.forward_into(*cur, s.out);
        break;
      }
      case StageKind::kReadout: {
        const auto& readout = static_cast<const LiReadout&>(*s.layer);
        const std::int64_t n = cur->numel();
        SNNSEC_CHECK(cur->ndim() == 2 && cur->dim(1) == num_classes_,
                     "AnytimeRunner: readout input "
                         << cur->shape().to_string() << ", expected [N, "
                         << num_classes_ << "]");
        ensure_flat(s.state_i, n);
        ensure_flat(s.state_v, n);
        if (t_ == 0) {
          s.state_i.zero_();
          s.state_v.zero_();
        }
        ensure_like(s.out, *cur);
        li_step(readout.params(), n, cur->data(), s.state_i.data(),
                s.state_v.data(), s.out.data());
        // Strictly-greater running max — the same comparison LiReadout's
        // one-shot decode uses, folded in as the trace grows.
        const float* row = s.out.data();
        float* pl = logits_.data();
        for (std::int64_t k = 0; k < n; ++k)
          if (row[k] > pl[k]) pl[k] = row[k];
        break;
      }
    }
    cur = &s.out;
  }
  if (sketch_ != nullptr) sketch_->end_step();
  ++t_;
}

void AnytimeRunner::apply_stage_fault(Stage& s, std::int64_t n) {
  if (t_ == 0) {
    // Rebuild the deterministic per-request fault state. Slot-major mask
    // draws from fork("slots") make the stuck assignment bit-identical to
    // LifLayer::apply_spike_fault for the same seed and geometry.
    util::Rng rng(s.fault.seed);
    util::Rng slot_rng = rng.fork("slots");
    // NOLINTNEXTLINE(snnsec-hot-alloc): armed-fault (chaos) path only
    s.stuck.assign(static_cast<std::size_t>(n), 0);
    for (std::int64_t k = 0; k < n; ++k) {
      if (s.fault.stuck_zero_fraction > 0.0 &&
          slot_rng.bernoulli(s.fault.stuck_zero_fraction))
        s.stuck[static_cast<std::size_t>(k)] = 1;
      else if (s.fault.stuck_one_fraction > 0.0 &&
               slot_rng.bernoulli(s.fault.stuck_one_fraction))
        s.stuck[static_cast<std::size_t>(k)] = 2;
    }
    ensure_flat(s.carry, n);
    s.carry.zero_();
    s.fault_rng = rng.fork("spikes");
  }
  // Same composition as the one-shot post-pass, one time slab at a time:
  // stuck masks override, surviving spikes are independently dropped or
  // delayed one step (the delay rides s.carry into the next slab; a spike
  // jittered at the final step is emitted in place, matching t+1 < T).
  const bool last_step = t_ + 1 >= time_steps_;
  float* z = s.out.data();
  float* carry = s.carry.data();
  for (std::int64_t k = 0; k < n; ++k) {
    const std::uint8_t st = s.stuck[static_cast<std::size_t>(k)];
    if (st == 1) {
      z[k] = 0.0f;
      carry[k] = 0.0f;
      continue;
    }
    if (st == 2) {
      z[k] = 1.0f;
      carry[k] = 0.0f;
      continue;
    }
    const bool fired = z[k] > 0.5f;
    float out = carry[k];  // a spike delayed from step t-1 arrives now
    carry[k] = 0.0f;
    if (fired) {
      if (s.fault.drop_prob > 0.0 && s.fault_rng.bernoulli(s.fault.drop_prob)) {
        // dropped
      } else if (s.fault.jitter_prob > 0.0 &&
                 s.fault_rng.bernoulli(s.fault.jitter_prob) && !last_step) {
        carry[k] = 1.0f;
      } else {
        out = 1.0f;
      }
    }
    z[k] = out;
  }
}

const Tensor& AnytimeRunner::run(const Tensor& x, std::int64_t max_steps) {
  begin(x);
  const std::int64_t budget =
      (max_steps <= 0 || max_steps > time_steps_) ? time_steps_ : max_steps;
  for (std::int64_t t = 0; t < budget; ++t) step();
  return logits_;
}

}  // namespace snnsec::snn
