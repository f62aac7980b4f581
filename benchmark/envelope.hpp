#pragma once
// The fixed scenario every workload runs in: storage envelope, product
// configuration, analytics parameters and input generation.
//
// These are copies, not includes, of bench/bench_common.hpp's envelope and
// blob configs, so an edit to the figure benches can never silently change
// what this benchmark measures.

#include <cstdint>
#include <string>

#include "analytics/blob.hpp"
#include "core/types.hpp"
#include "mesh/tri_mesh.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::e2e {

/// DRAM tmpfs over a contended production PFS: Lustre seen as a per-reader
/// stream of 2 MB/s with 2 ms per operation, the regime Canopus targets.
/// The fast tier holds every base product of a run; deltas and geometry
/// spill to the PFS by the paper's Fig. 1 placement.
inline storage::StorageHierarchy make_tiers() {
  auto lustre = storage::lustre_spec(8ull << 30);
  lustre.read_bandwidth = 2e6;
  lustre.write_bandwidth = 4e6;
  lustre.read_latency = 2e-3;
  lustre.write_latency = 2e-3;
  return storage::StorageHierarchy({storage::tmpfs_spec(64ull << 20), lustre});
}

/// 4 levels (decimation ratio 8), zfp at 1e-4, 8 delta chunks per level.
inline core::RefactorConfig refactor_config() {
  core::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  config.delta_chunks = 8;
  return config;
}

/// The paper's blob-detection config 1, <minThreshold 10, maxThreshold 200,
/// minArea 100> (Section IV-D), on a 180 x 180 raster.
inline constexpr std::size_t kRasterPx = 180;
inline analytics::BlobParams blob_params() {
  analytics::BlobParams p;
  p.threshold_step = 10;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.min_area = 100;
  return p;
}

inline const std::string kVar = "dpot";

/// One simulated timestep: an XGC1 dpot plane (~20.8k values). `hi` is the
/// top of the fixed intensity range the analytics quantize against.
struct Timestep {
  std::uint64_t id = 0;
  std::string path;
  sim::Dataset data;
  double hi = 1.0;
};

/// Timestep `t` of run seed `seed`, generated with seed 1000 * seed + t.
Timestep make_timestep(std::uint64_t seed, std::uint64_t t);

/// Order-sensitive 64-bit digest of a field's bits.
std::uint64_t digest(const mesh::Field& values);
/// Folds a blob list (centres, diameters, areas) into `h`.
std::uint64_t digest(std::uint64_t h, const std::vector<analytics::Blob>& blobs);

}  // namespace canopus::e2e
