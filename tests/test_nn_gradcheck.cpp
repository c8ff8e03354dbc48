// Finite-difference gradient checks for every differentiable nn layer and
// for the end-to-end input gradient the attacks consume.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/feedforward.hpp"
#include "nn/flatten.hpp"
#include "nn/lenet.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace snnsec::nn {
namespace {

using snnsec::testutil::bit_identical;
using snnsec::testutil::check_input_gradient;
using snnsec::testutil::check_parameter_gradients;
using tensor::Shape;
using tensor::Tensor;

TEST(GradCheck, LinearInputAndParams) {
  util::Rng rng(1);
  Linear lin(5, 3, rng);
  util::Rng drng(2);
  const Tensor x = Tensor::randn(Shape{4, 5}, drng);
  util::Rng wrng(3);
  check_input_gradient(lin, x, wrng);
  check_parameter_gradients(lin, x, wrng);
}

TEST(GradCheck, Conv2dInputAndParams) {
  util::Rng rng(4);
  Conv2d conv(Conv2dSpec{2, 3, 3, 1, 1}, rng);
  util::Rng drng(5);
  const Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, drng);
  util::Rng wrng(6);
  check_input_gradient(conv, x, wrng);
  check_parameter_gradients(conv, x, wrng);
}

TEST(GradCheck, Conv2dStridedNoPad) {
  util::Rng rng(7);
  Conv2d conv(Conv2dSpec{1, 2, 3, 2, 0}, rng);
  util::Rng drng(8);
  const Tensor x = Tensor::randn(Shape{2, 1, 7, 7}, drng);
  util::Rng wrng(9);
  check_input_gradient(conv, x, wrng);
  check_parameter_gradients(conv, x, wrng);
}

TEST(GradCheck, AvgPool) {
  AvgPool2d pool(2);
  util::Rng drng(10);
  const Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, drng);
  util::Rng wrng(11);
  check_input_gradient(pool, x, wrng);
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  MaxPool2d pool(2);
  // Large separation between elements keeps central differences away from
  // the max's kinks.
  util::Rng drng(12);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, drng);
  x.mul_scalar_(10.0f);
  util::Rng wrng(13);
  check_input_gradient(pool, x, wrng, /*step=*/1e-2, /*tol=*/2e-2);
}

TEST(GradCheck, ReLUAwayFromKink) {
  ReLU relu;
  util::Rng drng(14);
  Tensor x = Tensor::randn(Shape{3, 7}, drng);
  // Push values away from 0 so the finite difference never crosses it.
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] += (x[i] >= 0.0f ? 0.5f : -0.5f);
  util::Rng wrng(15);
  check_input_gradient(relu, x, wrng);
}

TEST(GradCheck, SigmoidAndTanh) {
  Sigmoid sig;
  Tanh tanh_layer;
  util::Rng drng(16);
  const Tensor x = Tensor::randn(Shape{3, 5}, drng);
  util::Rng wrng(17);
  check_input_gradient(sig, x, wrng);
  check_input_gradient(tanh_layer, x, wrng);
}

TEST(GradCheck, ScaleAndFlatten) {
  Scale s(2.5f);
  Flatten f;
  util::Rng drng(18);
  const Tensor x = Tensor::randn(Shape{2, 3, 2, 2}, drng);
  util::Rng wrng(19);
  check_input_gradient(s, x, wrng);
  check_input_gradient(f, x, wrng);
}

TEST(GradCheck, SequentialMlp) {
  util::Rng rng(20);
  Sequential seq;
  seq.emplace<Linear>(6, 10, rng);
  seq.emplace<Tanh>();  // smooth activation for clean finite differences
  seq.emplace<Linear>(10, 4, rng);
  util::Rng drng(21);
  const Tensor x = Tensor::randn(Shape{3, 6}, drng);
  util::Rng wrng(22);
  check_input_gradient(seq, x, wrng);
  check_parameter_gradients(seq, x, wrng);
}

TEST(GradCheck, SmallConvNet) {
  util::Rng rng(23);
  Sequential seq;
  seq.emplace<Conv2d>(Conv2dSpec{1, 2, 3, 1, 1}, rng);
  seq.emplace<Tanh>();
  seq.emplace<AvgPool2d>(2);
  seq.emplace<Flatten>();
  seq.emplace<Linear>(2 * 2 * 2, 3, rng);
  util::Rng drng(24);
  const Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, drng);
  util::Rng wrng(25);
  check_input_gradient(seq, x, wrng);
  check_parameter_gradients(seq, x, wrng);
}

TEST(GradCheck, SoftmaxCrossEntropyInputGradient) {
  SoftmaxCrossEntropy loss;
  util::Rng drng(26);
  const Tensor logits = Tensor::randn(Shape{4, 5}, drng);
  const std::vector<std::int64_t> labels{0, 3, 2, 4};
  loss.forward(logits, labels);
  const Tensor analytic = loss.backward();
  const double step = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits;
    lp[i] += static_cast<float>(step);
    Tensor lm = logits;
    lm[i] -= static_cast<float>(step);
    SoftmaxCrossEntropy l2;
    const double numeric =
        (l2.forward(lp, labels) - l2.forward(lm, labels)) / (2 * step);
    EXPECT_LT(snnsec::testutil::grad_error(numeric, analytic[i]), 1e-2)
        << "logit " << i;
  }
}

TEST(GradCheck, EndToEndInputGradientMatchesLossSlope) {
  // The white-box attack consumes Classifier::input_gradient; verify the
  // full pipeline (net + loss) against finite differences of the scalar
  // loss itself.
  util::Rng rng(27);
  auto seq = std::make_unique<Sequential>();
  seq->emplace<Conv2d>(Conv2dSpec{1, 2, 3, 1, 1}, rng);
  seq->emplace<Tanh>();
  seq->emplace<Flatten>();
  seq->emplace<Linear>(2 * 4 * 4, 3, rng);
  FeedforwardClassifier model(std::move(seq), 3, "test");

  util::Rng drng(28);
  const Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, drng);
  const std::vector<std::int64_t> labels{1, 2};
  double loss0 = 0.0;
  const Tensor g = model.input_gradient(x, labels, &loss0);
  ASSERT_EQ(g.shape(), x.shape());

  const double step = 1e-2;
  for (std::int64_t i = 0; i < x.numel(); i += 3) {
    Tensor xp = x;
    xp[i] += static_cast<float>(step);
    Tensor xm = x;
    xm[i] -= static_cast<float>(step);
    double lp = 0.0, lm = 0.0;
    model.input_gradient(xp, labels, &lp);
    model.input_gradient(xm, labels, &lm);
    const double numeric = (lp - lm) / (2 * step);
    EXPECT_LT(snnsec::testutil::grad_error(numeric, g[i]), 2e-2)
        << "pixel " << i;
  }
}

// The attack-mode contract on the paper CNN: input_gradient and
// output_gradient return exactly the dx of a train forward + backward on the
// same batch and cotangent, accumulate no parameter gradient, and a train
// forward/backward right after them still passes the finite-difference
// parameter check.
TEST(AttackMode, PaperCnnInputGradientIsTrainDxWithoutParamGrads) {
  LenetSpec spec = LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  util::Rng rng(41);
  auto model = build_paper_cnn(spec, rng);
  Sequential& net = model->net();
  util::Rng drng(42);
  const Tensor x = Tensor::randn(Shape{2, 1, 8, 8}, drng);
  const std::vector<std::int64_t> labels{4, 9};

  for (Parameter* p : model->parameters()) p->zero_grad();
  SoftmaxCrossEntropy loss;
  loss.forward(net.forward(x, Mode::kTrain), labels);
  const Tensor cot = loss.backward();
  const Tensor train_dx = net.backward(cot);
  ASSERT_GT(tensor::l2_norm(train_dx), 0.0f);

  for (Parameter* p : model->parameters()) p->zero_grad();
  EXPECT_TRUE(bit_identical(model->input_gradient(x, labels, nullptr),
                            train_dx));
  EXPECT_TRUE(bit_identical(model->output_gradient(x, cot), train_dx));
  for (Parameter* p : model->parameters())
    EXPECT_TRUE(bit_identical(p->grad, Tensor::zeros(p->grad.shape())))
        << p->name << " accumulated a gradient in attack mode";

  util::Rng wrng(43);
  check_parameter_gradients(net, x, wrng, /*step=*/1e-3, /*tol=*/2e-2);
}

}  // namespace
}  // namespace snnsec::nn
