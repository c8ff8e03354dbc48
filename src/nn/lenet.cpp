#include "nn/lenet.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace snnsec::nn {

namespace {
std::int64_t scale_count(std::int64_t n, double factor) {
  return std::max<std::int64_t>(
      2, static_cast<std::int64_t>(
             std::ceil(static_cast<double>(n) * factor)));
}
}  // namespace

LenetSpec LenetSpec::scaled(double factor) const {
  LenetSpec s = *this;
  s.conv1_channels = scale_count(conv1_channels, factor);
  s.conv2_channels = scale_count(conv2_channels, factor);
  s.conv3_channels = scale_count(conv3_channels, factor);
  s.fc_hidden = scale_count(fc_hidden, factor);
  s.fc_hidden2 = scale_count(fc_hidden2, factor);
  return s;
}

void LenetSpec::validate() const {
  SNNSEC_CHECK(in_channels > 0, "LenetSpec: in_channels must be positive");
  SNNSEC_CHECK(image_size >= 8 && image_size % 4 == 0,
               "LenetSpec: image_size must be >= 8 and divisible by 4, got "
                   << image_size);
  SNNSEC_CHECK(num_classes > 1, "LenetSpec: need >= 2 classes");
  SNNSEC_CHECK(conv1_channels > 0 && conv2_channels > 0 && conv3_channels > 0,
               "LenetSpec: conv channels must be positive");
  SNNSEC_CHECK(fc_hidden > 0 && fc_hidden2 > 0,
               "LenetSpec: fc sizes must be positive");
}

std::unique_ptr<FeedforwardClassifier> build_paper_cnn(const LenetSpec& spec,
                                                       util::Rng& rng) {
  spec.validate();
  auto net = std::make_unique<Sequential>();
  // conv1: 5x5, pad 2 keeps spatial size; pool halves it.
  net->emplace<Conv2d>(
      Conv2dSpec{spec.in_channels, spec.conv1_channels, 5, 1, 2}, rng);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  // conv2
  net->emplace<Conv2d>(
      Conv2dSpec{spec.conv1_channels, spec.conv2_channels, 5, 1, 2}, rng);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  // conv3: 3x3, pad 1, no pooling.
  net->emplace<Conv2d>(
      Conv2dSpec{spec.conv2_channels, spec.conv3_channels, 3, 1, 1}, rng);
  net->emplace<ReLU>();
  net->emplace<Flatten>();
  const std::int64_t flat =
      spec.conv3_channels * spec.pooled_size() * spec.pooled_size();
  net->emplace<Linear>(flat, spec.fc_hidden, rng);
  net->emplace<ReLU>();
  net->emplace<Linear>(spec.fc_hidden, spec.num_classes, rng);

  std::ostringstream desc;
  desc << "paper 5-layer CNN (3 conv + 2 fc), " << spec.image_size << "x"
       << spec.image_size << " input";
  return std::make_unique<FeedforwardClassifier>(std::move(net),
                                                 spec.num_classes, desc.str());
}

}  // namespace snnsec::nn
