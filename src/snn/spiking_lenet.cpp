#include "snn/spiking_lenet.hpp"

#include <array>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "snn/li_readout.hpp"

namespace snnsec::snn {

namespace {
// conv1, conv2 (5x5) and conv3 (3x3), all "same"-padded; the builder and
// spiking_lenet_parameter_floats both read the architecture from here.
std::array<nn::Conv2dSpec, 3> lenet_convs(const nn::LenetSpec& spec) {
  return {{{spec.in_channels, spec.conv1_channels, 5, 1, 2},
           {spec.conv1_channels, spec.conv2_channels, 5, 1, 2},
           {spec.conv2_channels, spec.conv3_channels, 3, 1, 1}}};
}

// fc1's input width: conv3's maps flattened after the two 2x2 pools. In
// double so that an unvalidated spec cannot wrap it.
double lenet_flat(const nn::LenetSpec& spec) {
  const double pooled = static_cast<double>(spec.pooled_size());
  return static_cast<double>(spec.conv3_channels) * pooled * pooled;
}
}  // namespace

LifParameters SnnConfig::lif_params() const {
  LifParameters p = neuron;
  p.v_th = static_cast<float>(v_th);
  return p;
}

void SnnConfig::validate() const {
  SNNSEC_CHECK(time_steps > 0 && time_steps <= kMaxTimeSteps,
               "SnnConfig: time_steps is " << time_steps
                                           << ", expected 1 to "
                                           << kMaxTimeSteps);
  SNNSEC_CHECK(v_th > 0.0, "SnnConfig: v_th must be positive");
  SNNSEC_CHECK(weight_gain > 0.0, "SnnConfig: weight_gain must be positive");
  lif_params().validate();
}

std::unique_ptr<SpikingClassifier> build_spiking_lenet(
    const nn::LenetSpec& spec, const SnnConfig& config, util::Rng& rng) {
  spec.validate();
  config.validate();
  const std::int64_t t = config.time_steps;
  const LifParameters lif = config.lif_params();
  LifParameters encoder_lif = lif;
  if (!config.encoder_uses_vth) encoder_lif.v_th = config.neuron.v_th;

  // Hidden-layer spiking nonlinearity: the paper's LIF neuron.
  auto make_spiking = [&] {
    return std::make_unique<LifLayer>(t, lif, config.surrogate);
  };

  auto net = std::make_unique<nn::Sequential>();
  // Each GEMM-bearing layer's input kind is fixed here from its operand's
  // ROLE in the architecture, never probed from runtime data (DESIGN.md
  // §14). Two roles appear in this stack:
  //   - spike slabs (the encoder's output feeding conv1, the hidden
  //     spiking layers' slabs feeding fc1/fc2): binary and mostly silent
  //     at SNN operating points -> the event kernels;
  //   - pooled rate maps (AvgPool2d output feeding conv2/conv3): 2x2
  //     averages of spikes are real-valued and mostly NONZERO by
  //     construction (one firing site lights the whole window), so they
  //     keep the dense blocked kernel.
  constexpr auto kSpikes = nn::InputKind::kEvents;
  // Input-current gain (Norse-style input normalization stand-in).
  // NOLINTNEXTLINE(snnsec-float-eq): gain of exactly 1 (the default literal) elides the Scale layer
  if (config.input_gain != 1.0)
    net->emplace<nn::Scale>(static_cast<float>(config.input_gain));
  // Encoder.
  if (config.encoder == EncoderKind::kConstantCurrentLif) {
    net->add(make_constant_current_encoder(t, encoder_lif, config.surrogate));
  } else {
    net->emplace<PoissonEncoder>(t, util::Rng(config.poisson_seed));
  }
  const std::array<nn::Conv2dSpec, 3> convs = lenet_convs(spec);
  // conv1 -> LIF -> pool
  net->emplace<nn::Conv2d>(convs[0], rng, /*bias=*/true, kSpikes);
  net->add(make_spiking());
  net->emplace<nn::AvgPool2d>(2);
  // conv2 -> LIF -> pool (input: pooled rate map -> dense by role)
  net->emplace<nn::Conv2d>(convs[1], rng);
  net->add(make_spiking());
  net->emplace<nn::AvgPool2d>(2);
  // conv3 -> LIF (input: pooled rate map -> dense by role)
  net->emplace<nn::Conv2d>(convs[2], rng);
  net->add(make_spiking());
  // classifier head
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(static_cast<std::int64_t>(lenet_flat(spec)),
                           spec.fc_hidden, rng, /*bias=*/true, kSpikes);
  net->add(make_spiking());
  net->emplace<nn::Linear>(spec.fc_hidden, spec.num_classes, rng,
                           /*bias=*/true, kSpikes);
  net->emplace<LiReadout>(t, lif);

  // Rescale weight inits so synaptic currents reach the threshold's working
  // range (see SnnConfig::weight_gain).
  // NOLINTNEXTLINE(snnsec-float-eq): gain of exactly 1 (the default literal) elides the weight rescale
  if (config.weight_gain != 1.0) {
    for (nn::Parameter* p : net->parameters())
      if (p->name == "weight")
        p->value.mul_scalar_(static_cast<float>(config.weight_gain));
  }

  std::ostringstream desc;
  desc << "spiking LeNet (3 conv + 2 fc, " << lif.to_string() << ", "
       << config.surrogate.to_string() << ")";
  return std::make_unique<SpikingClassifier>(std::move(net), t,
                                             spec.num_classes, desc.str());
}

double spiking_lenet_parameter_floats(const nn::LenetSpec& spec) {
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  double floats = 0.0;
  for (const nn::Conv2dSpec& c : lenet_convs(spec))
    floats += d(c.out_channels) *
              (d(c.in_channels) * d(c.kernel) * d(c.kernel) + 1);
  return floats + d(spec.fc_hidden) * (lenet_flat(spec) + 1) +
         d(spec.num_classes) * (d(spec.fc_hidden) + 1);
}

}  // namespace snnsec::snn
