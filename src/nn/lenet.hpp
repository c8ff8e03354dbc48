// LeNet builder.
//
// The paper's CNN baseline is "5-layer: 3 convolutional + 2 fully
// connected" trained on MNIST. LenetSpec is shared with the spiking builder
// (snn/spiking_lenet.hpp) so the CNN and SNN have the same number of layers
// and neurons per layer, as in the paper's setup.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/feedforward.hpp"
#include "util/rng.hpp"

namespace snnsec::nn {

struct LenetSpec {
  std::int64_t in_channels = 1;
  std::int64_t image_size = 28;  ///< square input, must be divisible by 4
  std::int64_t num_classes = 10;
  std::int64_t conv1_channels = 6;
  std::int64_t conv2_channels = 16;
  std::int64_t conv3_channels = 32;
  std::int64_t fc_hidden = 120;
  /// No builder reads this. It is kept only because checkpoint slot
  /// meta/arch t[8] records scaled()'s value of it, and the config hash
  /// and payload digests of existing checkpoints depend on that slot.
  std::int64_t fc_hidden2 = 84;

  /// Return a copy with channel/hidden counts scaled by `factor`
  /// (rounded up, min 2) — used by the quick experiment profiles.
  LenetSpec scaled(double factor) const;

  /// Spatial size after the two stride-2 poolings.
  std::int64_t pooled_size() const { return image_size / 4; }

  void validate() const;
};

/// Paper variant: conv-relu-pool, conv-relu-pool, conv-relu, fc-relu, fc.
/// (3 conv + 2 fc = the paper's "5-layer CNN".)
std::unique_ptr<FeedforwardClassifier> build_paper_cnn(const LenetSpec& spec,
                                                       util::Rng& rng);

}  // namespace snnsec::nn
