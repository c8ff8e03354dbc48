#include "snn/model_io.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "nn/layer_registry.hpp"
#include "obs/metrics.hpp"
#include "tensor/serialize.hpp"
#include "util/logging.hpp"

namespace snnsec::snn {

using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr float kFormatVersion = 2.0f;

// --- validated checkpoint container ---------------------------------------

constexpr float kCheckpointVersion = 1.0f;
constexpr const char* kFormatRecord = "meta/format";

// 2^24: a float holds every integer up to here exactly, so no count above
// it can have been written through a float slot.
constexpr std::int64_t kMaxExactInt = std::int64_t{1} << 24;

// Read float slot `index` of metadata record `record` as an integer in
// [lo, hi]. Every integer and enum slot is decoded through here, so a NaN,
// +-Inf, fractional or out-of-range value is rejected with a util::Error
// naming the slot before any float->int conversion (which would be
// undefined behaviour). A crafted file reaches this check: it runs before
// the config-hash check, and the payload digest is not a MAC.
std::int64_t decode_int(const Tensor& t, const char* record,
                        std::int64_t index, const char* name,
                        std::int64_t lo, std::int64_t hi) {
  const double v = t[index];
  SNNSEC_CHECK(std::isfinite(v) && v == std::floor(v) &&
                   v >= static_cast<double>(lo) &&
                   v <= static_cast<double>(hi),
               "model file: " << record << " t[" << index << "] (" << name
                              << ") is " << v << ", expected an integer in ["
                              << lo << ", " << hi << "]");
  return static_cast<std::int64_t>(v);
}

// A 64-bit value split into four exact 16-bit chunks (floats represent
// integers up to 2^24 exactly, so 16-bit chunks round-trip losslessly).
void encode_u64(std::uint64_t v, float* dst) {
  for (int i = 0; i < 4; ++i)
    dst[i] = static_cast<float>((v >> (16 * i)) & 0xFFFFu);
}

std::uint64_t decode_u64(const Tensor& t, std::int64_t first,
                         const char* record) {
  std::uint64_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint64_t>(
             decode_int(t, record, first + i, "u64 chunk", 0, 0xFFFF))
         << (16 * i);
  return v;
}

void fnv1a_bytes(const void* data, std::size_t n, std::uint64_t& h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
}

// Format record: [version, hash(4 chunks), digest(4 chunks)].
Tensor encode_format(std::uint64_t config_hash, std::uint64_t digest) {
  Tensor t(Shape{9});
  t[0] = kCheckpointVersion;
  encode_u64(config_hash, t.data() + 1);
  encode_u64(digest, t.data() + 5);
  return t;
}

// meta/arch slots: t[0] version, t[1..8] the LenetSpec counts, t[9] the
// retired dropout rate (written 0, and only 0 loads).
Tensor encode_arch(const nn::LenetSpec& arch) {
  Tensor t(Shape{10});
  t[0] = kFormatVersion;
  t[1] = static_cast<float>(arch.in_channels);
  t[2] = static_cast<float>(arch.image_size);
  t[3] = static_cast<float>(arch.num_classes);
  t[4] = static_cast<float>(arch.conv1_channels);
  t[5] = static_cast<float>(arch.conv2_channels);
  t[6] = static_cast<float>(arch.conv3_channels);
  t[7] = static_cast<float>(arch.fc_hidden);
  t[8] = static_cast<float>(arch.fc_hidden2);
  t[9] = 0.0f;
  return t;
}

nn::LenetSpec decode_arch(const Tensor& t) {
  SNNSEC_CHECK(t.numel() == 10 && t[0] == kFormatVersion,
               "model file: unsupported arch record (version " << t[0] << ")");
  const auto count = [&t](std::int64_t index, const char* name) {
    return decode_int(t, "meta/arch", index, name, 1, kMaxExactInt);
  };
  nn::LenetSpec arch;
  arch.in_channels = count(1, "in_channels");
  arch.image_size = count(2, "image_size");
  arch.num_classes = count(3, "num_classes");
  arch.conv1_channels = count(4, "conv1_channels");
  arch.conv2_channels = count(5, "conv2_channels");
  arch.conv3_channels = count(6, "conv3_channels");
  arch.fc_hidden = count(7, "fc_hidden");
  arch.fc_hidden2 = count(8, "fc_hidden2");
  decode_int(t, "meta/arch", 9, "dropout; Dropout was removed, only 0 loads",
             0, 0);
  return arch;
}

// meta/snn slots: t[14] is the retired neuron model (written 0 = LIF, and
// only 0 loads); t[15], t[16] are the retired ALIF beta and rho, written
// with their old defaults so the config hash of every LIF checkpoint is
// unchanged. Any other value there fails the config-hash check.
Tensor encode_config(const SnnConfig& cfg) {
  Tensor t(Shape{17});
  t[0] = kFormatVersion;
  t[1] = static_cast<float>(cfg.v_th);
  t[2] = static_cast<float>(cfg.time_steps);
  t[3] = static_cast<float>(static_cast<int>(cfg.surrogate.kind));
  t[4] = cfg.surrogate.alpha;
  t[5] = cfg.neuron.tau_syn_inv;
  t[6] = cfg.neuron.tau_mem_inv;
  t[7] = cfg.neuron.v_leak;
  t[8] = cfg.neuron.v_reset;
  t[9] = cfg.neuron.dt;
  t[10] = static_cast<float>(static_cast<int>(cfg.encoder));
  t[11] = cfg.encoder_uses_vth ? 1.0f : 0.0f;
  t[12] = static_cast<float>(cfg.weight_gain);
  t[13] = static_cast<float>(cfg.input_gain);
  t[14] = 0.0f;
  t[15] = 0.5f;
  t[16] = 0.9f;
  return t;
}

SnnConfig decode_config(const Tensor& t) {
  SNNSEC_CHECK(t.numel() == 17 && t[0] == kFormatVersion,
               "model file: unsupported snn record (version " << t[0] << ")");
  SnnConfig cfg;
  cfg.v_th = t[1];
  cfg.time_steps =
      decode_int(t, "meta/snn", 2, "time_steps", 1, kMaxTimeSteps);
  cfg.surrogate.kind = static_cast<SurrogateKind>(
      decode_int(t, "meta/snn", 3, "surrogate kind", 0,
                 static_cast<int>(SurrogateKind::kStraightThrough)));
  cfg.surrogate.alpha = t[4];
  cfg.neuron.tau_syn_inv = t[5];
  cfg.neuron.tau_mem_inv = t[6];
  cfg.neuron.v_leak = t[7];
  cfg.neuron.v_reset = t[8];
  cfg.neuron.dt = t[9];
  cfg.encoder = static_cast<EncoderKind>(
      decode_int(t, "meta/snn", 10, "encoder kind", 0,
                 static_cast<int>(EncoderKind::kPoisson)));
  cfg.encoder_uses_vth =
      decode_int(t, "meta/snn", 11, "encoder_uses_vth", 0, 1) == 1;
  cfg.weight_gain = t[12];
  cfg.input_gain = t[13];
  decode_int(t, "meta/snn", 14,
             "neuron model; ALIF (1) was removed, only LIF (0) loads", 0, 0);
  return cfg;
}

// Architecture record: [version, layer-kind-sequence fingerprint (4
// chunks)]. The fingerprint hashes the registry ids of the built network's
// layer stack (nn::architecture_fingerprint), so positional weight restore
// can never pour tensors into a reordered or swapped stack even when the
// LenetSpec/SnnConfig hash matches.
constexpr const char* kLayersRecord = "meta/layers";

Tensor encode_layers(const nn::Layer& net) {
  Tensor t(Shape{5});
  t[0] = kFormatVersion;
  encode_u64(nn::architecture_fingerprint(net), t.data() + 1);
  return t;
}

std::uint64_t decode_layers(const Tensor& t) {
  SNNSEC_CHECK(t.numel() == 5 && t[0] == kFormatVersion,
               "model file: unsupported layers record (version " << t[0]
                                                                 << ")");
  return decode_u64(t, 1, kLayersRecord);
}

// Read `path` and validate its format record: checkpoint version and
// payload digest (truncation, bit-flips). Returns the payload with the
// format record stripped, the writer's config hash and the digest; arch
// and config are left default. Throws util::Error on any mismatch.
CheckpointPayload read_checked_archive(const std::string& path) {
  CheckpointPayload out;
  out.archive = tensor::load_archive_file(path);
  const auto it = out.archive.find(kFormatRecord);
  SNNSEC_CHECK(it != out.archive.end() && it->second.numel() == 9,
               "model file " << path
                             << ": missing format record (pre-validation "
                                "file?)");
  const Tensor& fmt = it->second;
  SNNSEC_CHECK(fmt[0] == kCheckpointVersion,
               "model file " << path << ": unsupported checkpoint version "
                             << fmt[0]);
  out.config_hash = decode_u64(fmt, 1, kFormatRecord);
  out.digest = decode_u64(fmt, 5, kFormatRecord);
  out.archive.erase(it);
  SNNSEC_CHECK(checkpoint_digest(out.archive) == out.digest,
               "model file " << path << ": payload digest mismatch (corrupt)");
  return out;
}

}  // namespace

std::uint64_t spiking_lenet_config_hash(const nn::LenetSpec& arch,
                                        const SnnConfig& config) {
  std::map<std::string, Tensor> meta;
  meta.emplace("meta/arch", encode_arch(arch));
  meta.emplace("meta/snn", encode_config(config));
  return checkpoint_digest(meta);
}

std::uint64_t checkpoint_digest(
    const std::map<std::string, Tensor>& items) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  for (const auto& [name, t] : items) {
    if (name == kFormatRecord) continue;
    fnv1a_bytes(name.data(), name.size(), h);
    for (std::int64_t d = 0; d < t.ndim(); ++d) {
      const std::int64_t dim = t.dim(d);
      fnv1a_bytes(&dim, sizeof(dim), h);
    }
    fnv1a_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float),
                h);
  }
  return h;
}

void save_checkpoint(const std::string& path,
                     const std::map<std::string, Tensor>& items,
                     std::uint64_t config_hash) {
  std::map<std::string, Tensor> archive = items;
  archive.insert_or_assign(kFormatRecord,
                           encode_format(config_hash,
                                         checkpoint_digest(items)));
  tensor::save_archive_file(path, archive);  // atomic write-then-rename
}

std::optional<std::map<std::string, Tensor>> try_load_checkpoint(
    const std::string& path, std::uint64_t config_hash) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  try {
    CheckpointPayload payload = read_checked_archive(path);
    SNNSEC_CHECK(payload.config_hash == config_hash,
                 "config hash mismatch (stale file from another config)");
    return std::move(payload.archive);
  } catch (const util::Error& e) {
    SNNSEC_LOG_WARN("checkpoint " << path << " rejected: " << e.what());
    SNNSEC_COUNTER_ADD("checkpoint.rejected", 1);
    return std::nullopt;
  }
}

void save_spiking_lenet(const std::string& path, SpikingClassifier& model,
                        const nn::LenetSpec& arch, const SnnConfig& config) {
  std::map<std::string, Tensor> archive;
  archive.emplace("meta/arch", encode_arch(arch));
  archive.emplace("meta/snn", encode_config(config));
  archive.emplace(kLayersRecord, encode_layers(model.net()));
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "p%03u", static_cast<unsigned>(i));
    archive.emplace(name, params[i]->value);
  }
  save_checkpoint(path, archive, spiking_lenet_config_hash(arch, config));
}

CheckpointPayload load_validated_payload(const std::string& path) {
  CheckpointPayload out = read_checked_archive(path);
  SNNSEC_CHECK(out.archive.count("meta/arch") == 1 &&
                   out.archive.count("meta/snn") == 1 &&
                   out.archive.count(kLayersRecord) == 1,
               "model file " << path << ": missing metadata records");
  out.arch = decode_arch(out.archive.at("meta/arch"));
  out.config = decode_config(out.archive.at("meta/snn"));
  SNNSEC_CHECK(
      out.config_hash == spiking_lenet_config_hash(out.arch, out.config),
      "model file " << path << ": config hash mismatch");
  // Rebuilding allocates what meta/arch implies. The digest is not a MAC,
  // so a crafted arch could ask for GiBs; the file's own tensors bound it.
  std::int64_t stored = 0;
  for (const auto& [name, t] : out.archive)
    if (name != "meta/arch" && name != "meta/snn" && name != kLayersRecord)
      stored += t.numel();
  const double implied = spiking_lenet_parameter_floats(out.arch);
  SNNSEC_CHECK(implied == static_cast<double>(stored),
               "model file " << path << ": meta/arch implies " << implied
                             << " parameter floats, the file holds "
                             << stored);
  return out;
}

std::unique_ptr<SpikingClassifier> rebuild_spiking_lenet(
    const CheckpointPayload& payload, const std::string& label) {
  // Rebuild and overwrite the (arbitrary) fresh initialization.
  util::Rng rng(0);
  auto model = build_spiking_lenet(payload.arch, payload.config, rng);
  SNNSEC_CHECK(decode_layers(payload.archive.at(kLayersRecord)) ==
                   nn::architecture_fingerprint(model->net()),
               "model file "
                   << label
                   << ": architecture fingerprint mismatch — the stored "
                      "layer-kind sequence differs from the rebuilt network, "
                      "positional weight restore would misassign tensors");
  const auto params = model->parameters();
  SNNSEC_CHECK(payload.archive.size() == params.size() + 3,
               "model file " << label << ": expected " << params.size()
                             << " parameter tensors, found "
                             << payload.archive.size() - 3);
  for (std::size_t i = 0; i < params.size(); ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "p%03u", static_cast<unsigned>(i));
    const auto it = payload.archive.find(name);
    SNNSEC_CHECK(it != payload.archive.end(),
                 "model file " << label << ": missing tensor " << name);
    SNNSEC_CHECK(it->second.shape() == params[i]->value.shape(),
                 "model file " << label << ": shape mismatch for " << name
                               << ": " << it->second.shape().to_string()
                               << " vs "
                               << params[i]->value.shape().to_string());
    params[i]->value = it->second;
  }
  return model;
}

LoadedModel load_spiking_lenet(const std::string& path) {
  CheckpointPayload payload = load_validated_payload(path);
  LoadedModel out;
  out.model = rebuild_spiking_lenet(payload, path);
  out.arch = payload.arch;
  out.config = payload.config;
  return out;
}

std::optional<LoadedModel> try_load_spiking_lenet(const std::string& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  try {
    return load_spiking_lenet(path);
  } catch (const util::Error& e) {
    SNNSEC_LOG_WARN("model file " << path << " rejected: " << e.what());
    SNNSEC_COUNTER_ADD("checkpoint.rejected", 1);
    return std::nullopt;
  }
}

}  // namespace snnsec::snn
