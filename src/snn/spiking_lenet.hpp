// Spiking LeNet builder: the SNN counterpart of nn::build_paper_cnn with
// "the same number of layers and neurons per layer" (paper, Sec. I-B).
//
// Structure (time-major sequence in, logits out):
//   encoder (constant-current LIF or Poisson)
//   conv1 5x5 -> LIF -> avgpool2
//   conv2 5x5 -> LIF -> avgpool2
//   conv3 3x3 -> LIF
//   flatten -> fc1 -> LIF -> fc2 -> LiReadout (max-over-time)
//
// SnnConfig carries the paper's two structural parameters: the firing
// threshold v_th (applied to every LIF population, encoder included) and
// the time window T.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/lenet.hpp"
#include "snn/encoder.hpp"
#include "snn/lif_layer.hpp"
#include "snn/spiking_network.hpp"

namespace snnsec::snn {

/// Largest time window T a config may carry. Every forward holds [T·N, ...]
/// activation slabs, so T scales memory per sample. The paper's grid stops
/// at T = 96; this cap sits an order of magnitude above it, so any window
/// an experiment uses passes, while a crafted checkpoint cannot make its
/// first forward allocate GiBs.
inline constexpr std::int64_t kMaxTimeSteps = 1024;

struct SnnConfig {
  double v_th = 1.0;             ///< structural parameter #1
  std::int64_t time_steps = 64;  ///< structural parameter #2 (T)
  Surrogate surrogate{};
  LifParameters neuron;          ///< taus/dt template; v_th is overridden
  EncoderKind encoder = EncoderKind::kConstantCurrentLif;
  bool encoder_uses_vth = true;  ///< sweep the encoder threshold too
  std::uint64_t poisson_seed = 7;
  /// Multiplier on conv/linear weight init. Zero-mean Kaiming weights give
  /// spiking inputs sub-threshold synaptic currents and the deep layers
  /// never fire; a gain of a few (standard SNN practice, cf. SpyTorch's
  /// scaled initialization) puts membrane potentials in the threshold's
  /// working range. Applied to weights only, not biases.
  double weight_gain = 16.0;
  /// Gain on the pixel current fed to the encoder. Plays the role of
  /// Norse's MNIST normalization ((x - 0.1307)/0.3081 stretches pixels to
  /// ~[0, 2.8]): stroke pixels then drive the encoder well above threshold
  /// and the input spike trains carry usable rate information.
  double input_gain = 3.0;

  /// LIF parameters with this config's threshold applied.
  LifParameters lif_params() const;

  void validate() const;
};

/// Build the spiking LeNet for `spec` with structural parameters `config`.
std::unique_ptr<SpikingClassifier> build_spiking_lenet(
    const nn::LenetSpec& spec, const SnnConfig& config, util::Rng& rng);

/// Parameter floats (weights and biases) build_spiking_lenet allocates for
/// `spec`, counted from the same layer list it builds. Computed in double,
/// exact below 2^53 and with no term that can wrap, so an unvalidated spec
/// with huge counts yields a huge total instead of overflowing.
double spiking_lenet_parameter_floats(const nn::LenetSpec& spec);

}  // namespace snnsec::snn
