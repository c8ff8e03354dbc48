// LifLayer: a population of LIF neurons unrolled over the time window T,
// with exact backpropagation-through-time using a surrogate spike
// derivative.
//
// Sequence convention: a time-major tensor [T*N, features...] where rows
// t*N .. (t+1)*N-1 hold time step t for the whole mini-batch. Stateless
// layers (conv/linear/pool) process such tensors unchanged — time is just
// more batch — so a spiking network is an ordinary nn::Sequential with
// LifLayer instances where Norse would place LIFCell/LIFFeedForwardCell.
//
// Forward caches per step only the pre-reset membrane v_decayed (what the
// surrogate and reset-gate backward need); backward recomputes the spike
// z_t = H(vd_t - v_th) from it with the compare lif_step used, so z is
// bit-equal to the forward's. Backward runs reverse-time, carrying dL/dv
// and dL/di across steps:
//
//   tdz_t  = g_z[t] + gv ⊙ (v_reset − vd_t)        (spike + reset gate)
//   gvd    = gv ⊙ (1 − z_t) + tdz_t ⊙ sg(vd_t − v_th)
//   g_x[t] = gi
//   gv'    = gvd (1 − a);   gi' = gvd·a + gi·b
#pragma once

#include "nn/layer.hpp"
#include "obs/probe.hpp"
#include "snn/lif.hpp"

namespace snnsec::snn {

/// Inference-time spike-train fault model: transmission faults on a LIF
/// population's output axons, applied as a deterministic post-pass on the
/// spike tensor of every forward while armed (src/faults drives it for the
/// accuracy-under-fault grid study).
///
/// A "slot" below is one (sample, feature) neuron instance followed through
/// the whole time window. Faults compose: stuck-at masks override the spike
/// train, then each surviving spike is independently dropped or jittered.
/// Backward through an armed layer is NOT supported — BPTT recomputes the
/// unfaulted spikes from the cached membrane, so it would differentiate a
/// network other than the one that ran — so arm faults for evaluation
/// forwards only; backward() after a faulted train/attack forward throws
/// util::Error.
struct SpikeFault {
  double drop_prob = 0.0;           ///< P(spike deleted)
  double jitter_prob = 0.0;         ///< P(spike delayed by one time step)
  double stuck_zero_fraction = 0.0; ///< fraction of slots forced silent
  double stuck_one_fraction = 0.0;  ///< fraction of slots firing every step
  std::uint64_t seed = 0;           ///< re-seeded identically per forward

  bool any() const {
    return drop_prob > 0.0 || jitter_prob > 0.0 ||
           stuck_zero_fraction > 0.0 || stuck_one_fraction > 0.0;
  }
  void validate() const;
};

class LifLayer final : public nn::Layer {
 public:
  /// `time_steps` is the paper's time-window T; each forward input must
  /// have dim0 == T * N for some batch size N.
  LifLayer(std::int64_t time_steps, LifParameters params, Surrogate surrogate);

  tensor::Tensor forward(const tensor::Tensor& x, nn::Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override;
  std::string_view kind() const override { return "LifLayer"; }
  void clear_cache() override;

  std::int64_t time_steps() const { return time_steps_; }
  const LifParameters& params() const { return params_; }
  const Surrogate& surrogate() const { return surrogate_; }

  /// Mean spike probability per neuron-step in the most recent forward —
  /// diagnostic for dead/saturated cells in the (V_th, T) grid.
  double last_spike_rate() const { return last_spike_rate_; }

  /// Total element count ([T*N, F...] numel) of the most recent forward —
  /// used with last_spike_rate() by the activity/energy analysis.
  std::int64_t last_output_numel() const { return last_output_numel_; }

  /// When the probe is armed, the next forward additionally computes full
  /// obs::ActivityStats (silent/saturated fractions, membrane-potential
  /// histogram) from the per-step state — an O(numel) pass that is skipped
  /// entirely while disarmed, keeping the un-probed hot path unchanged.
  void set_probe(bool on) { probe_ = on; }
  bool probe_armed() const { return probe_; }

  /// Stats from the most recent probed forward (empty before one runs).
  const obs::ActivityStats& last_activity() const { return last_activity_; }

  /// Arm (or, with a default-constructed fault, disarm) the spike-train
  /// fault model applied to every subsequent forward.
  void set_spike_fault(const SpikeFault& fault);
  void clear_spike_fault() { fault_ = SpikeFault{}; }
  const SpikeFault& spike_fault() const { return fault_; }

 private:
  void collect_activity_stats(const tensor::Tensor& z,
                              const tensor::Tensor& vd, std::int64_t per_step,
                              std::int64_t spike_count);
  void apply_spike_fault(tensor::Tensor& z, std::int64_t per_step) const;

  std::int64_t time_steps_;
  LifParameters params_;
  Surrogate surrogate_;

  // cache (train/attack mode); its buffer is reused while the shape holds
  tensor::Tensor v_decayed_;  // [T*N, F...]
  std::int64_t cached_rows_ = 0;  // N*F per step
  bool have_cache_ = false;
  bool cached_faulted_ = false;  // forward ran with a SpikeFault armed
  double last_spike_rate_ = 0.0;
  std::int64_t last_output_numel_ = 0;
  bool probe_ = false;
  obs::ActivityStats last_activity_;
  SpikeFault fault_{};
};

}  // namespace snnsec::snn
