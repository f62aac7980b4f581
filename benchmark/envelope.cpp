#include "envelope.hpp"

#include <algorithm>
#include <cstring>

namespace canopus::e2e {

Timestep make_timestep(std::uint64_t seed, std::uint64_t t) {
  sim::XgcOptions options;
  options.seed = 1000 * seed + t;
  Timestep ts;
  ts.id = t;
  ts.path = "ts-" + std::to_string(t) + ".bp";
  ts.data = sim::make_xgc_dataset(options);
  // Blob detection looks for positive over-densities: the intensity scale
  // runs from 0 to the field's maximum, as in the figure benches.
  ts.hi = *std::max_element(ts.data.values.begin(), ts.data.values.end());
  return ts;
}

namespace {
// FNV-1a over 64-bit words: one multiply per value keeps the per-op digest
// cost far below the op it checks.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

std::uint64_t bits(double v) {
  std::uint64_t w = 0;
  std::memcpy(&w, &v, sizeof w);
  return w;
}
}  // namespace

std::uint64_t digest(const mesh::Field& values) {
  std::uint64_t h = mix(kFnvOffset, values.size());
  for (const double v : values) h = mix(h, bits(v));
  return h;
}

std::uint64_t digest(std::uint64_t h, const std::vector<analytics::Blob>& blobs) {
  h = mix(h, blobs.size());
  for (const auto& b : blobs) {
    h = mix(h, bits(b.center.x));
    h = mix(h, bits(b.center.y));
    h = mix(h, bits(b.diameter));
    h = mix(h, bits(b.area));
  }
  return h;
}

}  // namespace canopus::e2e
