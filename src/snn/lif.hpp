// Leaky-Integrate-and-Fire neuron dynamics (Norse-compatible discretization).
//
// State per neuron: synaptic current i, membrane potential v. One Euler
// step with time step dt:
//
//   v_decayed = v + dt*tau_mem_inv * ((v_leak - v) + i)
//   i_decayed = (1 - dt*tau_syn_inv) * i
//   z         = H(v_decayed - v_th)            (spike)
//   v'        = (1 - z) * v_decayed + z * v_reset
//   i'        = i_decayed + x                  (input current enters here)
//
// This matches norse.torch.functional.lif_step: the input current injected
// at step t first influences the membrane at step t+1. The firing threshold
// v_th is the structural parameter the paper sweeps; the observation window
// T lives one level up (LifLayer / the network).
#pragma once

#include <cstdint>
#include <string>

#include "snn/surrogate.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::snn {

struct LifParameters {
  float tau_syn_inv = 200.0f;  ///< 1/tau_syn  [1/s]
  float tau_mem_inv = 100.0f;  ///< 1/tau_mem  [1/s]
  float v_th = 1.0f;           ///< firing threshold (paper's V_th)
  float v_leak = 0.0f;
  float v_reset = 0.0f;
  float dt = 1e-3f;

  /// Membrane integration factor a = dt * tau_mem_inv.
  float a() const { return dt * tau_mem_inv; }
  /// Synaptic decay factor b = 1 - dt * tau_syn_inv.
  float b() const { return 1.0f - dt * tau_syn_inv; }

  /// Throws util::Error when the discretization is unstable (a or b outside
  /// (0, 1]) or the threshold is non-positive.
  void validate() const;

  std::string to_string() const;
};

/// Dense per-neuron state for a population of `size` neurons.
struct LifState {
  explicit LifState(std::int64_t size)
      : i(tensor::Shape{size}), v(tensor::Shape{size}) {}
  tensor::Tensor i;
  tensor::Tensor v;
};

/// One forward Euler step over a population (flat arrays of length n).
/// Writes spikes into `z_out` and the pre-reset membrane into
/// `v_decayed_out` (needed by BPTT); updates state in place. `x` must not
/// overlap any other array.
void lif_step(const LifParameters& p, std::int64_t n, const float* x,
              float* state_i, float* state_v, float* z_out,
              float* v_decayed_out);

/// Leaky-integrator (non-spiking readout) step: same dynamics without
/// threshold/reset. Writes the membrane trace into v_out.
void li_step(const LifParameters& p, std::int64_t n, const float* x,
             float* state_i, float* state_v, float* v_out);

}  // namespace snnsec::snn
