// Deterministic fault injectors (weight bit-flips, stuck-at neurons, spike
// drop/jitter) and the accuracy-under-fault grid harness.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/synth_digits.hpp"
#include "faults/harness.hpp"
#include "nn/metrics.hpp"
#include "snn/lif_layer.hpp"
#include "util/error.hpp"

namespace snnsec::faults {
namespace {

namespace fs = std::filesystem;

nn::LenetSpec tiny_arch() {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  return arch;
}

std::unique_ptr<snn::SpikingClassifier> tiny_model(double v_th = 1.0) {
  snn::SnnConfig cfg;
  cfg.v_th = v_th;
  cfg.time_steps = 8;
  util::Rng rng(42);
  util::Rng init = rng.fork("snn-init");
  return snn::build_spiking_lenet(tiny_arch(), cfg, init);
}

tensor::Tensor tiny_batch() {
  data::DataSpec spec;
  spec.train_n = 16;
  spec.test_n = 16;
  spec.image_size = 16;
  spec.force_synthetic = true;
  return data::load_digits(spec).test.images;
}

std::vector<float> flatten_weights(snn::SpikingClassifier& model) {
  std::vector<float> out;
  for (nn::Parameter* p : model.parameters())
    out.insert(out.end(), p->value.data(),
               p->value.data() + p->value.numel());
  return out;
}

double total_spike_rate(snn::SpikingClassifier& model) {
  double sum = 0.0;
  for (const double r : model.spike_rates()) sum += r;
  return sum;
}

TEST(WeightBitflips, DeterministicForAGivenSeed) {
  auto model = tiny_model();
  const auto baseline = flatten_weights(*model);
  auto params = model->parameters();

  util::Rng rng_a(7);
  const std::size_t flipped_a =
      inject_weight_bitflips(params, 1e-3, rng_a);
  EXPECT_GT(flipped_a, 0u);
  const auto faulted_a = flatten_weights(*model);

  // Same seed on an identically-initialized model: same bits must flip.
  auto fresh = tiny_model();
  auto fresh_params = fresh->parameters();
  util::Rng rng_b(7);
  const std::size_t flipped_b =
      inject_weight_bitflips(fresh_params, 1e-3, rng_b);
  EXPECT_EQ(flipped_a, flipped_b);
  const auto faulted_b = flatten_weights(*fresh);

  ASSERT_EQ(faulted_a.size(), faulted_b.size());
  EXPECT_EQ(std::memcmp(faulted_a.data(), faulted_b.data(),
                        faulted_a.size() * sizeof(float)),
            0)
      << "same seed must flip the same bits";
  // And the fault actually changed something relative to the baseline.
  EXPECT_NE(std::memcmp(baseline.data(), faulted_a.data(),
                        baseline.size() * sizeof(float)),
            0);
}

TEST(WeightBitflips, SnapshotRestoreUndoesTheFault) {
  auto model = tiny_model();
  auto params = model->parameters();
  const auto baseline = flatten_weights(*model);
  const auto snapshot = snapshot_parameters(params);

  util::Rng rng(7);
  inject_weight_bitflips(params, 0.01, rng);
  EXPECT_NE(flatten_weights(*model), baseline);

  restore_parameters(params, snapshot);
  EXPECT_EQ(flatten_weights(*model), baseline);
}

TEST(WeightBitflips, ZeroAndOneBerEdgeCases) {
  auto model = tiny_model();
  auto params = model->parameters();
  const auto baseline = flatten_weights(*model);
  util::Rng rng(7);
  EXPECT_EQ(inject_weight_bitflips(params, 0.0, rng), 0u);
  EXPECT_EQ(flatten_weights(*model), baseline);

  std::uint64_t total_bits = 0;
  for (const nn::Parameter* p : params)
    total_bits += static_cast<std::uint64_t>(p->value.numel()) * 32;
  EXPECT_EQ(inject_weight_bitflips(params, 1.0, rng),
            static_cast<std::size_t>(total_bits));
}

TEST(SpikeFaults, StuckAtZeroSilencesTheNetwork) {
  auto model = tiny_model();
  const auto x = tiny_batch();

  const std::size_t armed =
      arm_fault(*model, {FaultKind::kStuckAtZero, 1.0, 7});
  EXPECT_GT(armed, 0u);
  model->logits(x);
  for (const double r : model->spike_rates()) EXPECT_EQ(r, 0.0);

  clear_spike_faults(*model);
  model->logits(x);
  EXPECT_GT(total_spike_rate(*model), 0.0) << "disarm must restore activity";
}

TEST(SpikeFaults, DropReducesSpikeRateDeterministically) {
  auto model = tiny_model();
  const auto x = tiny_batch();
  model->logits(x);
  const double baseline = total_spike_rate(*model);
  ASSERT_GT(baseline, 0.0);

  arm_fault(*model, {FaultKind::kSpikeDrop, 0.5, 7});
  const auto logits_a = model->logits(x);
  const double dropped = total_spike_rate(*model);
  // Dropping half the encoder spikes starves downstream layers too, so the
  // total must fall well below baseline (but some activity survives).
  EXPECT_LT(dropped, 0.8 * baseline);

  // Deterministic: the fault pattern is re-seeded per forward.
  const auto logits_b = model->logits(x);
  EXPECT_TRUE(logits_a.allclose(logits_b, 0.0f));
  EXPECT_EQ(total_spike_rate(*model), dropped);
}

TEST(SpikeFaults, JitterPreservesMostSpikes) {
  auto model = tiny_model();
  const auto x = tiny_batch();
  model->logits(x);
  const double baseline = total_spike_rate(*model);

  arm_fault(*model, {FaultKind::kSpikeJitter, 0.5, 7});
  const auto logits_a = model->logits(x);
  const double jittered = total_spike_rate(*model);
  // Jitter only delays spikes (merging on collision and at the window
  // edge), so the rate may dip but must stay the same order of magnitude.
  EXPECT_LE(jittered, baseline + 1e-12);
  EXPECT_GT(jittered, 0.25 * baseline);
  EXPECT_TRUE(logits_a.allclose(model->logits(x), 0.0f));
}

TEST(ScopedFaultTest, RestoresWeightsAndDisarmsOnExit) {
  auto model = tiny_model();
  const auto x = tiny_batch();
  const auto baseline_logits = model->logits(x);
  const auto baseline_weights = flatten_weights(*model);

  {
    ScopedFault scope(*model, {FaultKind::kWeightBitflip, 0.01, 7});
    EXPECT_GT(scope.injected(), 0u);
    EXPECT_NE(flatten_weights(*model), baseline_weights);
  }
  EXPECT_EQ(flatten_weights(*model), baseline_weights);

  {
    ScopedFault scope(*model, {FaultKind::kStuckAtZero, 1.0, 7});
    model->logits(x);
    EXPECT_EQ(total_spike_rate(*model), 0.0);
  }
  EXPECT_TRUE(model->logits(x).allclose(baseline_logits, 0.0f));
}

TEST(ScopedFaultTest, NestedSpikeScopesRestoreTheOuterFault) {
  // An inner scope destructing must re-arm whatever the outer scope had
  // installed on the same LIF layers — not blanket-clear it. Faults are
  // distinguished by the total spike rate (deterministic per armed state;
  // this untrained model's *logits* barely react to spike faults).
  auto model = tiny_model();
  const auto x = tiny_batch();
  model->logits(x);
  const double clean_rate = total_spike_rate(*model);
  const FaultSpec outer_spec{FaultKind::kSpikeDrop, 0.3, 11};
  const FaultSpec inner_spec{FaultKind::kSpikeJitter, 0.5, 13};

  double drop_rate = 0.0;
  double jitter_rate = 0.0;
  {
    ScopedFault scope(*model, outer_spec);
    model->logits(x);
    drop_rate = total_spike_rate(*model);
  }
  {
    ScopedFault scope(*model, inner_spec);
    model->logits(x);
    jitter_rate = total_spike_rate(*model);
  }
  ASSERT_LT(drop_rate, clean_rate);
  ASSERT_NE(jitter_rate, drop_rate);
  EXPECT_EQ(armed_spike_fault_count(*model), 0u);

  {
    ScopedFault outer(*model, outer_spec);
    const std::size_t armed = armed_spike_fault_count(*model);
    EXPECT_GT(armed, 0u);
    {
      ScopedFault inner(*model, inner_spec);
      EXPECT_EQ(armed_spike_fault_count(*model), armed);
      model->logits(x);
      EXPECT_EQ(total_spike_rate(*model), jitter_rate)
          << "inner scope must replace the outer fault while active";
    }
    EXPECT_EQ(armed_spike_fault_count(*model), armed)
        << "inner exit must restore the outer fault, not disarm";
    model->logits(x);
    EXPECT_EQ(total_spike_rate(*model), drop_rate);
  }
  EXPECT_EQ(armed_spike_fault_count(*model), 0u);
  model->logits(x);
  EXPECT_EQ(total_spike_rate(*model), clean_rate);
}

TEST(ScopedFaultTest, ReArmAfterClearReproducesTheFault) {
  auto model = tiny_model();
  const auto x = tiny_batch();
  const FaultSpec spec{FaultKind::kSpikeDrop, 0.4, 17};
  arm_fault(*model, spec);
  const auto faulted = model->logits(x);
  clear_spike_faults(*model);
  EXPECT_EQ(armed_spike_fault_count(*model), 0u);
  // Arming again from the same spec forks the same per-layer sub-seeds.
  arm_fault(*model, spec);
  EXPECT_GT(armed_spike_fault_count(*model), 0u);
  EXPECT_TRUE(model->logits(x).allclose(faulted, 0.0f));
  clear_spike_faults(*model);
}

// The BPTT caches of a faulted forward hold the faulted spikes, so a
// gradient through them would differentiate a different network: backward
// must refuse, name the layer, and work again once the fault is cleared.
TEST(SpikeFaults, BackwardThroughFaultedForwardThrows) {
  snn::LifParameters params;
  params.v_th = 0.5f;
  snn::LifLayer lif(4, params, snn::Surrogate{});
  util::Rng rng(5);
  const tensor::Tensor x =
      tensor::Tensor::rand_uniform(tensor::Shape{4 * 2, 6}, rng, 0.0f, 2.0f);
  snn::SpikeFault fault;
  fault.drop_prob = 0.5;
  fault.seed = 3;
  lif.set_spike_fault(fault);
  for (const nn::Mode mode : {nn::Mode::kTrain, nn::Mode::kAttack}) {
    const tensor::Tensor z = lif.forward(x, mode);
    try {
      (void)lif.backward(tensor::Tensor::ones(z.shape()));
      ADD_FAILURE() << "backward through a faulted forward did not throw";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("LifLayer(T=4"),
                std::string::npos)
          << e.what();
    }
  }

  lif.clear_spike_fault();
  const tensor::Tensor z = lif.forward(x, nn::Mode::kAttack);
  EXPECT_NO_THROW((void)lif.backward(tensor::Tensor::ones(z.shape())));

  // Whole-model attack gradients hit the same guard.
  auto model = tiny_model();
  const auto images = tiny_batch();
  const tensor::Tensor batch = nn::slice_batch(images, 0, 2);
  arm_fault(*model, {FaultKind::kSpikeDrop, 0.3, 11});
  EXPECT_THROW((void)model->input_gradient(batch, {0, 1}, nullptr),
               util::Error);
  clear_spike_faults(*model);
  EXPECT_NO_THROW((void)model->input_gradient(batch, {0, 1}, nullptr));
}

TEST(ScopedFaultTest, WeightScopeDoesNotDisturbArmedSpikeFaults) {
  auto model = tiny_model();
  const auto x = tiny_batch();
  arm_fault(*model, {FaultKind::kSpikeDrop, 0.3, 19});
  const std::size_t armed = armed_spike_fault_count(*model);
  EXPECT_GT(armed, 0u);
  const auto faulted = model->logits(x);
  {
    ScopedFault scope(*model, {FaultKind::kWeightBitflip, 0.01, 23});
    EXPECT_EQ(armed_spike_fault_count(*model), armed);
  }
  EXPECT_EQ(armed_spike_fault_count(*model), armed);
  EXPECT_TRUE(model->logits(x).allclose(faulted, 0.0f));
  clear_spike_faults(*model);
}

TEST(ScopedFaultTest, StackedWeightScopesRestoreLifo) {
  // Compare bit patterns, not float values: exponent flips mint NaNs, and
  // NaN != NaN would report a bit-perfect restore as a mismatch.
  const auto bits = [](snn::SpikingClassifier& model) {
    std::vector<std::uint32_t> out;
    for (const float f : flatten_weights(model)) {
      std::uint32_t b;
      std::memcpy(&b, &f, sizeof b);
      out.push_back(b);
    }
    return out;
  };
  auto model = tiny_model();
  const auto w0 = bits(*model);
  {
    ScopedFault outer(*model, {FaultKind::kWeightBitflip, 0.005, 29});
    EXPECT_GT(outer.injected(), 0u);
    const auto w1 = bits(*model);
    EXPECT_NE(w1, w0);
    {
      ScopedFault inner(*model, {FaultKind::kWeightBitflip, 0.005, 31});
      EXPECT_GT(inner.injected(), 0u);
      EXPECT_NE(bits(*model), w1);
    }
    EXPECT_EQ(bits(*model), w1) << "inner exit must restore outer's view";
  }
  EXPECT_EQ(bits(*model), w0);
}

TEST(FaultSpecTest, LabelsAndValidation) {
  FaultSpec spec{FaultKind::kWeightBitflip, 1e-3, 7};
  EXPECT_EQ(spec.label(), "weight_bitflip@0.001");
  EXPECT_EQ((FaultSpec{FaultKind::kSpikeDrop, 0.25, 7}.label()),
            "spike_drop@0.25");
  spec.rate = 1.5;
  EXPECT_THROW(spec.validate(), util::Error);
}

TEST(FaultGrid, EvaluatesEveryCellUnderEveryFault) {
  core::ExplorationConfig cfg;
  cfg.v_th_grid = {1.0};
  cfg.t_grid = {8};
  cfg.eps_grid = {0.1};
  cfg.accuracy_threshold = 0.25;
  cfg.arch = tiny_arch();
  cfg.train.epochs = 1;
  cfg.train.batch_size = 32;
  cfg.train.lr = 4e-3;
  cfg.data.train_n = 200;
  cfg.data.test_n = 40;
  cfg.data.image_size = 16;
  cfg.retry.base_delay_ms = 0.0;
  data::DataSpec spec = cfg.data;
  spec.force_synthetic = true;
  const auto data = data::load_digits(spec);

  core::RobustnessExplorer explorer(cfg);
  FaultGridConfig fault_cfg;
  fault_cfg.faults = {
      {FaultKind::kWeightBitflip, 0.0, 7},  // no-op control
      {FaultKind::kStuckAtZero, 1.0, 7},    // total failure
  };
  fault_cfg.eval_cap = 32;
  fault_cfg.eval_batch = 16;

  const FaultReport report = evaluate_fault_grid(explorer, data, fault_cfg);
  ASSERT_EQ(report.cells.size(), 1u);
  const FaultCellResult* cell = report.find(1.0, 8);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->status, core::CellStatus::kOk);
  ASSERT_EQ(cell->accuracy.size(), 2u);
  // The no-op fault must reproduce the baseline exactly; the silencing
  // fault collapses the network to a constant output.
  EXPECT_EQ(cell->accuracy.at("weight_bitflip@0"), cell->baseline_accuracy);
  EXPECT_LE(cell->accuracy.at("stuck_at_zero@1"), cell->baseline_accuracy);

  EXPECT_NE(report.table().find("stuck_at_zero@1"), std::string::npos);

  const auto csv_path =
      (fs::temp_directory_path() / "snnsec_faults.csv").string();
  report.write_csv(csv_path);
  std::ifstream is(csv_path);
  ASSERT_TRUE(is.is_open());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header,
            "v_th,T,status,baseline_accuracy,weight_bitflip@0,"
            "stuck_at_zero@1");
  fs::remove(csv_path);
}

}  // namespace
}  // namespace snnsec::faults
