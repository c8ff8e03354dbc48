// Model checkpoint save/load round-trips.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "nn/layer_registry.hpp"
#include "obs/metrics.hpp"
#include "snn/model_io.hpp"
#include "tensor/serialize.hpp"
#include "tensor/ops.hpp"

namespace snnsec::snn {
namespace {

namespace fs = std::filesystem;
using tensor::Shape;
using tensor::Tensor;

struct Fixture {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  SnnConfig cfg;
  std::unique_ptr<SpikingClassifier> model;

  explicit Fixture(double v_th = 1.25, std::int64_t t = 7) {
    arch.image_size = 8;
    cfg.v_th = v_th;
    cfg.time_steps = t;
    cfg.surrogate.alpha = 12.5f;
    util::Rng rng(99);
    model = build_spiking_lenet(arch, cfg, rng);
  }
};

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(ModelIo, RoundTripPreservesLogits) {
  Fixture fx;
  const std::string path = temp_path("snnsec_model_io.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);

  LoadedModel loaded = load_spiking_lenet(path);
  EXPECT_EQ(loaded.arch.image_size, 8);
  EXPECT_DOUBLE_EQ(loaded.config.v_th, 1.25);
  EXPECT_EQ(loaded.config.time_steps, 7);
  EXPECT_FLOAT_EQ(loaded.config.surrogate.alpha, 12.5f);

  util::Rng drng(1);
  const Tensor x = Tensor::rand_uniform(Shape{3, 1, 8, 8}, drng);
  EXPECT_TRUE(fx.model->logits(x).allclose(loaded.model->logits(x), 0.0f));
  fs::remove(path);
}

TEST(ModelIo, PreservesStructuralParameters) {
  Fixture fx(2.0, 12);
  fx.cfg.encoder_uses_vth = false;
  fx.cfg.weight_gain = 8.0;
  fx.cfg.input_gain = 2.0;
  util::Rng rng(100);
  fx.model = build_spiking_lenet(fx.arch, fx.cfg, rng);
  const std::string path = temp_path("snnsec_model_io2.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  const LoadedModel loaded = load_spiking_lenet(path);
  EXPECT_FALSE(loaded.config.encoder_uses_vth);
  EXPECT_DOUBLE_EQ(loaded.config.weight_gain, 8.0);
  EXPECT_DOUBLE_EQ(loaded.config.input_gain, 2.0);
  EXPECT_EQ(loaded.model->time_steps(), 12);
  fs::remove(path);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(load_spiking_lenet("/nonexistent/model.snnm"), util::Error);
}

TEST(ModelIo, CorruptMetadataThrows) {
  // An archive without the metadata records is rejected.
  const std::string path = temp_path("snnsec_model_io_bad.snnm");
  std::map<std::string, Tensor> junk;
  junk.emplace("p000", Tensor::zeros(Shape{3}));
  tensor::save_archive_file(path, junk);
  EXPECT_THROW(load_spiking_lenet(path), util::Error);
  fs::remove(path);
}

TEST(ModelIo, TrainedWeightsSurviveRoundTrip) {
  Fixture fx;
  // Nudge a weight so the file provably carries non-initial values.
  auto params = fx.model->parameters();
  params[0]->value[0] = 123.456f;
  const std::string path = temp_path("snnsec_model_io4.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  const LoadedModel loaded = load_spiking_lenet(path);
  EXPECT_FLOAT_EQ(loaded.model->parameters()[0]->value[0], 123.456f);
  fs::remove(path);
}

// Apply `edit` to the archive of the checkpoint at `path`, then re-stamp a
// self-consistent config hash (the digest over the two metadata records,
// as spiking_lenet_config_hash computes it) and payload digest — what a
// crafted file carries, since the digest is not a MAC. Only the metadata
// checks can then reject the file.
template <typename Edit>
void craft(const std::string& path, Edit edit) {
  auto archive = tensor::load_archive_file(path);
  archive.erase("meta/format");
  edit(archive);
  std::map<std::string, Tensor> meta;
  meta.emplace("meta/arch", archive.at("meta/arch"));
  meta.emplace("meta/snn", archive.at("meta/snn"));
  save_checkpoint(path, archive, checkpoint_digest(meta));
}

void craft_slot(const std::string& path, const char* record,
                std::int64_t index, float value) {
  craft(path, [&](std::map<std::string, Tensor>& archive) {
    archive.at(record)[index] = value;
  });
}

// The crafted checkpoint at `path` must make load_spiking_lenet throw
// util::Error, and try_load_spiking_lenet return nullopt and count the
// rejection.
void expect_rejected(const std::string& path) {
  EXPECT_THROW(load_spiking_lenet(path), util::Error);
  obs::Registry::instance().set_enabled(true);
  const obs::Counter& rejected =
      obs::Registry::instance().counter("checkpoint.rejected");
  const std::int64_t before = rejected.value();
  EXPECT_FALSE(try_load_spiking_lenet(path).has_value());
  EXPECT_EQ(rejected.value(), before + 1);
}

// A valid checkpoint with one slot crafted to `value` must be rejected.
void expect_slot_rejected(const char* record, std::int64_t index,
                          float value) {
  SCOPED_TRACE(std::string(record) + " t[" + std::to_string(index) +
               "] = " + std::to_string(value));
  Fixture fx;
  const std::string path = temp_path("snnsec_model_io_crafted.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  craft_slot(path, record, index, value);
  expect_rejected(path);
  fs::remove(path);
}

TEST(ModelIo, CraftedSlotWithItsOwnValueStillLoads) {
  // Control for the rejection tests below: re-stamping hash and digest
  // after rewriting slots with their saved values yields a loadable file.
  Fixture fx;
  const std::string path = temp_path("snnsec_model_io_control.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  craft_slot(path, "meta/snn", 14, 0.0f);
  craft_slot(path, "meta/snn", 2, 7.0f);
  craft_slot(path, "meta/arch", 4,
             static_cast<float>(fx.arch.conv1_channels));
  EXPECT_NO_THROW(load_spiking_lenet(path));
  EXPECT_TRUE(try_load_spiking_lenet(path).has_value());
  fs::remove(path);
}

TEST(ModelIo, RejectsAlifCheckpoint) {
  // An ALIF checkpoint as earlier builds wrote it: neuron-model slot 1 and
  // a meta/layers fingerprint whose hidden spiking layers are AlifLayer
  // (retired registry id 15; the encoder stayed a LifLayer).
  Fixture fx;
  const std::string path = temp_path("snnsec_model_io_alif.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  std::uint64_t h = 0xCBF29CE484222325ULL;  // architecture_fingerprint's FNV
  const auto mix = [&h](std::uint64_t id) {
    h ^= id;
    h *= 0x100000001B3ULL;
  };
  mix(nn::layer_kind_id("Sequential"));
  bool encoder = true;
  for (std::size_t i = 0; i < fx.model->net().size(); ++i) {
    const std::string_view kind = fx.model->net().layer(i).kind();
    const bool hidden_lif = kind == "LifLayer" && !encoder;
    mix(hidden_lif ? 15 : nn::layer_kind_id(kind));
    if (kind == "LifLayer") encoder = false;
  }
  craft(path, [h](std::map<std::string, Tensor>& archive) {
    archive.at("meta/snn")[14] = 1.0f;
    Tensor& layers = archive.at("meta/layers");
    for (std::int64_t c = 0; c < 4; ++c)
      layers[1 + c] = static_cast<float>((h >> (16 * c)) & 0xFFFFu);
  });
  expect_rejected(path);
  fs::remove(path);
}

TEST(ModelIo, RejectsDropoutCheckpoint) {
  expect_slot_rejected("meta/arch", 9, 0.5f);
}

TEST(ModelIo, RejectsOutOfRangeEnumSlots) {
  expect_slot_rejected("meta/snn", 3, 9.0f);   // surrogate kind
  expect_slot_rejected("meta/snn", 10, 5.0f);  // encoder kind
  expect_slot_rejected("meta/snn", 11, 2.0f);  // encoder_uses_vth flag
}

TEST(ModelIo, RejectsNonFiniteFractionalAndHugeIntegerSlots) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v : {nan, 1e30f, inf, -inf, 2.5f, -3.0f}) {
    expect_slot_rejected("meta/snn", 2, v);   // time_steps
    expect_slot_rejected("meta/arch", 4, v);  // conv1_channels
  }
}

TEST(ModelIo, RejectsTimeWindowAboveTheCap) {
  // T = 2^24 is an exact float integer, and with a self-consistent hash and
  // digest only the time-window cap stands between the file and a first
  // forward that allocates [T·N, ...] slabs of GiBs. Decoding the metadata
  // rejects it, before any network is built.
  Fixture fx;
  const std::string path = temp_path("snnsec_model_io_huge_t.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  craft_slot(path, "meta/snn", 2, 16777216.0f);
  EXPECT_THROW(load_validated_payload(path), util::Error);
  expect_rejected(path);
  craft_slot(path, "meta/snn", 2, static_cast<float>(kMaxTimeSteps + 1));
  expect_rejected(path);
  // The cap itself still loads.
  craft_slot(path, "meta/snn", 2, static_cast<float>(kMaxTimeSteps));
  EXPECT_EQ(load_spiking_lenet(path).config.time_steps, kMaxTimeSteps);
  fs::remove(path);
}

// Sanitizer runtimes reserve terabytes of address space up front, so an
// address-space cap cannot be set under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCanCapAddressSpace = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kCanCapAddressSpace = false;
#else
constexpr bool kCanCapAddressSpace = true;
#endif
#else
constexpr bool kCanCapAddressSpace = true;
#endif

// Cap this process's address space at its current size plus 1 GiB, so a
// load that tries to allocate GiBs fails with bad_alloc instead of
// exhausting the machine. False when the cap could not be applied.
bool cap_address_space() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  if (!(statm >> pages)) return false;
  const rlim_t cap = static_cast<rlim_t>(pages) *
                         static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                     (rlim_t{1} << 30);
  const rlimit limit{cap, cap};
  return setrlimit(RLIMIT_AS, &limit) == 0;
}

// Runs death tests in the threadsafe style (the child re-executes the
// binary instead of forking a process that may already run worker threads)
// for one scope, then restores the style the binary had.
class ThreadsafeDeathTests {
 public:
  ThreadsafeDeathTests() : saved_(style()) { set_style("threadsafe"); }
  ~ThreadsafeDeathTests() { set_style(saved_); }
  ThreadsafeDeathTests(const ThreadsafeDeathTests&) = delete;
  ThreadsafeDeathTests& operator=(const ThreadsafeDeathTests&) = delete;

 private:
#ifdef GTEST_FLAG_SET
  static std::string style() { return GTEST_FLAG_GET(death_test_style); }
  static void set_style(const std::string& s) {
    GTEST_FLAG_SET(death_test_style, s);
  }
#else
  static std::string style() {
    return ::testing::GTEST_FLAG(death_test_style);
  }
  static void set_style(const std::string& s) {
    ::testing::GTEST_FLAG(death_test_style) = s;
  }
#endif
  std::string saved_;
};

// The count the loader checks a file's tensors against is the network's.
TEST(ModelIo, ParameterFloatCountMatchesBuiltNetwork) {
  Fixture fx;
  for (const nn::LenetSpec& arch :
       {fx.arch, nn::LenetSpec{}, nn::LenetSpec{}.scaled(0.5)}) {
    util::Rng rng(5);
    const auto model = build_spiking_lenet(arch, fx.cfg, rng);
    std::int64_t floats = 0;
    for (const nn::Parameter* p : model->parameters())
      floats += p->value.numel();
    EXPECT_EQ(spiking_lenet_parameter_floats(arch),
              static_cast<double>(floats));
  }
}

TEST(ModelIo, RejectsArchWhoseParametersOutgrowTheFile) {
  // conv2_channels = 2^24 with a self-consistent hash and digest: the
  // rebuilt network would hold ~3.4 GB of conv2 weights. The load must
  // reject the file from its own tensor sizes before building anything.
  Fixture fx;
  const std::string path = temp_path("snnsec_model_io_huge_arch.snnm");
  save_spiking_lenet(path, *fx.model, fx.arch, fx.cfg);
  craft_slot(path, "meta/arch", 5, 16777216.0f);
  // A child under an address-space cap, so a regression aborts the child
  // on bad_alloc rather than allocating GiBs here. Exit code 2: the cap
  // could not be applied.
  const ThreadsafeDeathTests style;
  EXPECT_EXIT(
      {
        if (kCanCapAddressSpace && !cap_address_space()) std::exit(2);
        bool threw = false;
        try {
          load_spiking_lenet(path);
        } catch (const util::Error&) {
          threw = true;
        }
        std::exit(threw && !try_load_spiking_lenet(path).has_value() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  fs::remove(path);
}

}  // namespace
}  // namespace snnsec::snn
