// ModelCache: warm cache of validated checkpoints for the serving runtime.
//
// Loading a checkpoint costs file I/O plus the full validation chain
// (digest, config hash, architecture fingerprint). The cache pays that once
// per distinct model and hands out shared immutable Artifacts; servers then
// stamp out private replicas (mutable SpikingClassifier instances with
// their own forward state) from the in-memory payload without touching the
// filesystem again.
//
// Keying: artifacts are looked up by path, but deduplicated by
// (config_hash, payload digest) — the structural-parameter fingerprint
// (Vth, T, taus, encoder, ...) plus content identity — so two paths holding
// the same bytes share one artifact, while a retrained file with identical
// structure but different weights does not alias a stale entry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "snn/model_io.hpp"

namespace snnsec::serve {

class ModelCache {
 public:
  /// An immutable loaded checkpoint. Thread-safe to share: replicas are
  /// built from the payload, never from each other.
  struct Artifact {
    snn::CheckpointPayload payload;
    std::string path;  ///< first path this artifact was loaded from

    std::uint64_t config_hash() const { return payload.config_hash; }
    std::uint64_t digest() const { return payload.digest; }
    const nn::LenetSpec& arch() const { return payload.arch; }
    const snn::SnnConfig& config() const { return payload.config; }

    /// Build an independent model replica with the stored weights.
    std::unique_ptr<snn::SpikingClassifier> make_replica() const;
  };

  ModelCache() = default;

  /// Load (or return the cached) validated checkpoint at `path`. Throws
  /// util::Error when the file is missing, corrupt or mismatched.
  std::shared_ptr<const Artifact> acquire(const std::string& path);

  /// Drop every cached artifact (outstanding shared_ptrs stay valid).
  void clear();

  std::int64_t hits() const;
  std::int64_t misses() const;

  /// Process-wide cache used by Server when given a path.
  static ModelCache& global();

 private:
  mutable std::mutex m_;
  std::map<std::string, std::shared_ptr<const Artifact>> by_path_;
  /// (config_hash, digest) -> artifact, for cross-path deduplication.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::weak_ptr<const Artifact>>
      by_identity_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace snnsec::serve
