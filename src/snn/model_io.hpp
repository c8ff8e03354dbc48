// Model checkpointing: persist a trained spiking LeNet together with the
// architecture and structural parameters needed to rebuild it — so a tuned
// sweet-spot model ("trustworthy SNN") can be shipped and reloaded without
// retraining.
//
// File layout: a tensor archive (tensor/serialize.hpp) with
//   "meta/format" — checkpoint format version, the writer's config hash and
//                   an FNV-1a digest over every payload tensor (corruption/
//                   staleness detection; see save_checkpoint)
//   "meta/arch"   — LenetSpec fields
//   "meta/snn"    — SnnConfig fields (v_th, T, taus, surrogate, gains, ...)
//   "p000".."pNN" — parameter tensors in Sequential order
//
// Retired slots: meta/arch t[9] (dropout rate) and meta/snn t[14] (neuron
// model) are still written as 0, and t[15]/t[16] (ALIF beta, rho) as 0.5
// and 0.9, so existing LIF checkpoints keep their config hash and digest.
// Loading rejects a file whose t[9] or t[14] is not 0 (a Dropout or ALIF
// model, which this build no longer has), and every integer or enum slot
// that is non-finite, fractional or out of range, with a util::Error.
//
// All writers are atomic (write-to-temp + fsync + rename) and all loaders
// validate magic/version/hash/digest, so a crashed or corrupted checkpoint
// is rejected — with a warning, via the try_* entry points — instead of
// being deserialized into garbage weights.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "snn/spiking_lenet.hpp"

namespace snnsec::snn {

/// Atomically write a validated checkpoint: `items` plus a "meta/format"
/// record holding the format version, `config_hash` (the caller's
/// fingerprint of everything that determined the payload) and an FNV-1a
/// digest of every payload tensor's bytes.
void save_checkpoint(const std::string& path,
                     const std::map<std::string, tensor::Tensor>& items,
                     std::uint64_t config_hash);

/// Load a checkpoint written by save_checkpoint and return the payload
/// (without "meta/format"), or std::nullopt — with a logged warning — when
/// the file is truncated, corrupt (digest mismatch), from a different
/// format version, or written under a different `config_hash`. A missing
/// file returns nullopt silently.
std::optional<std::map<std::string, tensor::Tensor>> try_load_checkpoint(
    const std::string& path, std::uint64_t config_hash);

/// FNV-1a digest over names, shapes and raw bytes of every tensor in
/// `items` (the payload digest stored by save_checkpoint).
std::uint64_t checkpoint_digest(
    const std::map<std::string, tensor::Tensor>& items);

/// Serialize `model`, which must have been produced by build_spiking_lenet
/// with (`arch`, `config`).
void save_spiking_lenet(const std::string& path, SpikingClassifier& model,
                        const nn::LenetSpec& arch, const SnnConfig& config);

/// Fingerprint of the (arch, config) metadata that determines a spiking
/// LeNet checkpoint's layout — the hash save_spiking_lenet stamps into the
/// format record, exposed so caches can key warm models by structural
/// configuration (Vth, T, taus, encoder, ...) without reloading files.
std::uint64_t spiking_lenet_config_hash(const nn::LenetSpec& arch,
                                        const SnnConfig& config);

/// A fully validated spiking-LeNet checkpoint: the archive payload (format
/// record stripped) plus its decoded metadata. Building a network from it
/// is a pure in-memory operation, so one loaded payload can stamp out any
/// number of independent model replicas (serve workers hold one each).
struct CheckpointPayload {
  std::map<std::string, tensor::Tensor> archive;
  nn::LenetSpec arch;
  SnnConfig config;
  std::uint64_t config_hash = 0;  ///< spiking_lenet_config_hash(arch, config)
  std::uint64_t digest = 0;       ///< payload digest (content identity)
};

/// Read `path` and run the full validation chain (format version, payload
/// digest, config-hash self-consistency, metadata presence) without
/// constructing a network. Throws util::Error on any mismatch.
CheckpointPayload load_validated_payload(const std::string& path);

/// Build a fresh SpikingClassifier from a validated payload and restore its
/// weights (positional, guarded by the stored architecture fingerprint).
/// `label` names the checkpoint in error messages. Each call returns an
/// independent replica — no state is shared between replicas.
std::unique_ptr<SpikingClassifier> rebuild_spiking_lenet(
    const CheckpointPayload& payload, const std::string& label);

struct LoadedModel {
  std::unique_ptr<SpikingClassifier> model;
  nn::LenetSpec arch;
  SnnConfig config;
};

/// Rebuild the network from the stored architecture/config and restore its
/// weights. Throws util::Error on format or shape mismatches.
LoadedModel load_spiking_lenet(const std::string& path);

/// load_spiking_lenet that logs a warning and returns std::nullopt instead
/// of throwing when the file is missing, truncated or corrupt — the entry
/// point for cache-style loads where the fallback is retraining.
std::optional<LoadedModel> try_load_spiking_lenet(const std::string& path);

}  // namespace snnsec::snn
