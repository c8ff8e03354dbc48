// The deterministic prepare step: the three bench_fleet cells and the
// PGD-perturbed hostile set, built once per checkout outside every timed
// region and checked by digest on every run.
#include <cstdio>
#include <filesystem>
#include <map>

#include "attacks/pgd.hpp"
#include "bench.hpp"
#include "data/provider.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace sn = snnsec;

namespace {

constexpr std::int64_t kTrainN = 1000;
constexpr std::int64_t kTestN = 200;
constexpr std::int64_t kHostilePerCell = 32;
/// Format stamp of the inputs archive.
constexpr std::uint64_t kInputsHash = 0x70626E6368303031ULL;  // "pbnch001"

/// Payload digests of the prepared files as built by the reference build
/// of this benchmark (SNNSEC_THREADS=1, x86-64-v3 kernel clones). A
/// different digest means the library trained or attacked differently, so
/// parent and change would not serve the same weights and inputs.
constexpr std::uint64_t kCellDigest[kNumCells] = {
    0x32737c897d59d7f6ULL, 0x23dd1b7eea12df53ULL, 0xdac17e0e0e2c14b6ULL};
constexpr std::uint64_t kInputsDigest = 0xb3a617a06a53e678ULL;

std::string cell_path(const std::string& dir, int c) {
  return (std::filesystem::path(dir) / (std::string(kCells[c].name) + ".snnm"))
      .string();
}

std::string inputs_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "inputs.snnt").string();
}

Tensor labels_tensor(const std::vector<std::int64_t>& y) {
  Tensor t{sn::tensor::Shape{static_cast<std::int64_t>(y.size())}};
  for (std::size_t i = 0; i < y.size(); ++i)
    t.data()[i] = static_cast<float>(y[i]);
  return t;
}

std::vector<std::int64_t> labels_vector(const Tensor& t) {
  std::vector<std::int64_t> y(static_cast<std::size_t>(t.numel()));
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = static_cast<std::int64_t>(t.data()[i]);
  return y;
}

}  // namespace

int prepare(const std::string& dir) {
  std::filesystem::create_directories(dir);
  // The bench_fleet recipe: 16x16 synthetic digits, half-width LeNet,
  // 5 epochs at lr 4e-3, one fixed seed per cell.
  sn::data::DataSpec dspec;
  dspec.train_n = kTrainN;
  dspec.test_n = kTestN;
  dspec.image_size = 16;
  dspec.force_synthetic = true;
  const sn::data::DataBundle bundle = sn::data::load_digits(dspec);

  std::unique_ptr<sn::snn::SpikingClassifier> models[kNumCells];
  for (int c = 0; c < kNumCells; ++c) {
    sn::nn::LenetSpec arch = sn::nn::LenetSpec{}.scaled(0.5);
    arch.image_size = 16;
    sn::snn::SnnConfig cfg;
    cfg.v_th = kCells[c].v_th;
    cfg.time_steps = kCells[c].time_steps;
    sn::util::Rng rng(42 + static_cast<std::uint64_t>(c));
    models[c] = sn::snn::build_spiking_lenet(arch, cfg, rng);
    sn::nn::TrainConfig tcfg;
    tcfg.epochs = 5;
    tcfg.lr = 4e-3;
    sn::nn::Trainer(tcfg).fit(*models[c], bundle.train.images,
                              bundle.train.labels);
    sn::snn::save_spiking_lenet(cell_path(dir, c), *models[c], arch, cfg);
    std::printf("prepare: cell %-8s clean accuracy %.3f\n", kCells[c].name,
                sn::nn::accuracy(*models[c], bundle.test.images,
                                 bundle.test.labels));
  }

  // Hostile set: thirds of the test set, each attacked white-box against
  // one cell (eps 0.1, 10 PGD steps), as bench_fleet's adversarial phase.
  std::vector<Tensor> parts;
  std::vector<std::int64_t> hostile_y;
  for (int c = 0; c < kNumCells; ++c) {
    const std::int64_t a = c * kHostilePerCell;
    const Tensor clean =
        sn::nn::slice_batch(bundle.test.images, a, a + kHostilePerCell);
    const std::vector<std::int64_t> y(
        bundle.test.labels.begin() + a,
        bundle.test.labels.begin() + a + kHostilePerCell);
    sn::attack::PgdConfig pc;
    pc.steps = 10;
    pc.rel_stepsize = 0.1;
    pc.seed = 99 + static_cast<std::uint64_t>(c);
    sn::attack::AttackBudget budget;
    budget.epsilon = 0.1;
    parts.push_back(sn::attack::Pgd(pc).perturb(*models[c], clean, y, budget));
    hostile_y.insert(hostile_y.end(), y.begin(), y.end());
  }
  Tensor hostile{sn::tensor::Shape{kNumCells * kHostilePerCell, 1, 16, 16}};
  const std::int64_t part_n = parts[0].numel();
  for (int c = 0; c < kNumCells; ++c)
    std::copy(parts[c].data(), parts[c].data() + part_n,
              hostile.data() + c * part_n);

  const std::map<std::string, Tensor> items = {
      {"clean/x", bundle.test.images},
      {"clean/y", labels_tensor(bundle.test.labels)},
      {"hostile/x", hostile},
      {"hostile/y", labels_tensor(hostile_y)},
  };
  sn::snn::save_checkpoint(inputs_path(dir), items, kInputsHash);
  for (int c = 0; c < kNumCells; ++c)
    std::printf("prepare: digest %s %016llx\n", kCells[c].name,
                static_cast<unsigned long long>(
                    sn::snn::load_validated_payload(cell_path(dir, c)).digest));
  std::printf("prepare: digest inputs %016llx\n",
              static_cast<unsigned long long>(
                  sn::snn::checkpoint_digest(items)));
  return 0;
}

Prepared load_prepared(const std::string& dir) {
  Prepared p;
  for (int c = 0; c < kNumCells; ++c) {
    p.checkpoint[c] = cell_path(dir, c);
    const std::uint64_t d =
        sn::snn::load_validated_payload(p.checkpoint[c]).digest;
    SNNSEC_CHECK(d == kCellDigest[c],
                 "perfbench: cell " << kCells[c].name << " digest " << std::hex
                                    << d << " != reference "
                                    << kCellDigest[c]);
  }
  auto items = sn::snn::try_load_checkpoint(inputs_path(dir), kInputsHash);
  SNNSEC_CHECK(items.has_value(), "perfbench: cannot load " << inputs_path(dir));
  const std::uint64_t d = sn::snn::checkpoint_digest(*items);
  SNNSEC_CHECK(d == kInputsDigest, "perfbench: inputs digest "
                                       << std::hex << d << " != reference "
                                       << kInputsDigest);
  p.clean_x = items->at("clean/x");
  p.clean_y = labels_vector(items->at("clean/y"));
  p.hostile_x = items->at("hostile/x");
  p.hostile_y = labels_vector(items->at("hostile/y"));
  return p;
}

}  // namespace perfbench
