#include "nn/layer_registry.hpp"

#include "nn/sequential.hpp"
#include "util/error.hpp"

namespace snnsec::nn {

const std::vector<LayerKindInfo>& layer_registry() {
  // Append-only: ids are baked into checkpoint fingerprints, so surviving
  // entries are never renumbered, only added. snnsec_lint checks that every
  // final Layer subclass in src/nn + src/snn has a row here. Ids 5, 6, 8
  // and 15 (the removed BatchNorm1d, BatchNorm2d, Dropout and AlifLayer)
  // are retired and must never be reused.
  static const std::vector<LayerKindInfo> kRegistry = {
      {"ReLU", 1},
      {"Scale", 2},
      {"Sigmoid", 3},
      {"Tanh", 4},
      {"Conv2d", 7},
      {"Flatten", 9},
      {"Linear", 10},
      {"AvgPool2d", 11},
      {"MaxPool2d", 12},
      {"Sequential", 13},
      {"LifLayer", 14},
      {"PoissonEncoder", 16},
      {"LiReadout", 17},
  };
  return kRegistry;
}

bool is_registered_layer_kind(std::string_view kind) {
  for (const LayerKindInfo& info : layer_registry())
    if (info.kind == kind) return true;
  return false;
}

std::uint16_t layer_kind_id(std::string_view kind) {
  for (const LayerKindInfo& info : layer_registry())
    if (info.kind == kind) return info.id;
  SNNSEC_FAIL("layer kind \"" << std::string(kind)
                              << "\" is not in the serialization registry "
                                 "(src/nn/layer_registry.cpp)");
}

namespace {

void fingerprint_walk(const Layer& layer, std::uint64_t& h) {
  const std::uint16_t id = layer_kind_id(layer.kind());
  h ^= id;
  h *= 0x100000001B3ULL;  // FNV-1a prime, as elsewhere in the tree
  if (const auto* seq = dynamic_cast<const Sequential*>(&layer)) {
    for (std::size_t i = 0; i < seq->size(); ++i)
      fingerprint_walk(seq->layer(i), h);
  }
}

}  // namespace

std::uint64_t architecture_fingerprint(const Layer& root) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  fingerprint_walk(root, h);
  return h;
}

}  // namespace snnsec::nn
