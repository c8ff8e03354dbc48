#include "nn/feedforward.hpp"

#include <sstream>

#include "tensor/ops.hpp"

namespace snnsec::nn {

using tensor::Tensor;

std::vector<std::int64_t> Classifier::predict(const Tensor& x) {
  return tensor::argmax_rows(logits(x));
}

FeedforwardClassifier::FeedforwardClassifier(std::unique_ptr<Sequential> net,
                                             std::int64_t num_classes,
                                             std::string description)
    : net_(std::move(net)),
      num_classes_(num_classes),
      description_(std::move(description)) {
  SNNSEC_CHECK(net_ != nullptr, "FeedforwardClassifier: null network");
  SNNSEC_CHECK(num_classes_ > 1, "FeedforwardClassifier: need >= 2 classes");
}

Tensor FeedforwardClassifier::logits(const Tensor& x) {
  return net_->forward(x, Mode::kEval);
}

Tensor FeedforwardClassifier::input_gradient(
    const Tensor& x, const std::vector<std::int64_t>& labels,
    double* loss_out) {
  const Tensor out = net_->forward(x, Mode::kAttack);
  const double loss = loss_.forward(out, labels);
  if (loss_out != nullptr) *loss_out = loss;
  return net_->backward(loss_.backward());
}

Tensor FeedforwardClassifier::output_gradient(const Tensor& x,
                                              const Tensor& cotangent) {
  const Tensor out = net_->forward(x, Mode::kAttack);
  SNNSEC_CHECK(cotangent.shape() == out.shape(),
               "output_gradient: cotangent shape "
                   << cotangent.shape().to_string() << " != logits shape "
                   << out.shape().to_string());
  return net_->backward(cotangent);
}

double FeedforwardClassifier::train_batch(
    const Tensor& x, const std::vector<std::int64_t>& labels,
    Optimizer& optimizer) {
  optimizer.zero_grad();
  const Tensor out = net_->forward(x, Mode::kTrain);
  const double loss = loss_.forward(out, labels);
  net_->backward(loss_.backward());
  optimizer.step();
  return loss;
}

std::vector<Parameter*> FeedforwardClassifier::parameters() {
  return net_->parameters();
}

std::string FeedforwardClassifier::describe() const {
  std::ostringstream oss;
  oss << description_ << '\n' << net_->summary();
  return oss.str();
}

}  // namespace snnsec::nn
