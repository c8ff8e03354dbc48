// AlifLayer: adaptive-threshold LIF (ALIF, cf. Bellec et al. 2018 "long
// short-term memory in networks of spiking neurons").
//
// On top of the LIF dynamics, each neuron carries an adaptation trace b
// that is bumped by its own spikes and decays with time constant tau_adapt;
// the effective threshold becomes v_th + beta * b. Firing therefore
// self-limits — a third structural mechanism (beyond V_th and T) that
// shapes both coding and the attack surface, provided for the neuron-model
// extension studies (the paper's future work mentions richer behaviors;
// DIET-SNN [37] tunes leak/threshold jointly).
//
// Discretization (per step, extending lif.hpp's update):
//   b' = rho * b + (1 - rho) * z,   rho = exp(-dt / tau_adapt) ≈ 1 - dt/tau
//   z  = H(vd - (v_th + beta * b))
// BPTT carries dL/db alongside dL/dv and dL/di; the spike's effect on the
// future threshold is differentiated exactly.
#pragma once

#include "nn/layer.hpp"
#include "snn/lif.hpp"

namespace snnsec::snn {

struct AlifParameters {
  LifParameters lif;
  float beta = 1.0f;        ///< threshold boost per unit adaptation
  float rho = 0.9f;         ///< adaptation decay factor per step
  void validate() const;
};

/// One forward Euler step of the ALIF dynamics over a population (flat
/// arrays of length n), the adaptive-threshold analogue of lif_step. Writes
/// spikes into z_out, the pre-reset membrane into v_decayed_out, and the
/// PRE-update adaptation trace (the value that entered the threshold) into
/// b0_out — BPTT needs it. Updates state_i/state_v/state_b in place.
/// Shared by AlifLayer::forward and AnytimeRunner's kAlif stage so both
/// paths run the identical arithmetic (the bit-identity contract). No two
/// of the seven arrays may overlap.
void alif_step(const AlifParameters& p, std::int64_t n, const float* x,
               float* state_i, float* state_v, float* state_b, float* z_out,
               float* v_decayed_out, float* b0_out);

class AlifLayer final : public nn::Layer {
 public:
  AlifLayer(std::int64_t time_steps, AlifParameters params,
            Surrogate surrogate);

  tensor::Tensor forward(const tensor::Tensor& x, nn::Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override;
  std::string_view kind() const override { return "AlifLayer"; }
  void clear_cache() override;

  std::int64_t time_steps() const { return time_steps_; }
  const AlifParameters& params() const { return params_; }
  double last_spike_rate() const { return last_spike_rate_; }

 private:
  std::int64_t time_steps_;
  AlifParameters params_;
  Surrogate surrogate_;

  tensor::Tensor v_decayed_;   // [T*N, F...]
  tensor::Tensor spikes_;      // [T*N, F...]
  tensor::Tensor adaptation_;  // b BEFORE the step's update, per t
  std::int64_t per_step_ = 0;
  bool have_cache_ = false;
  double last_spike_rate_ = 0.0;
};

}  // namespace snnsec::snn
