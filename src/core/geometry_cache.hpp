#pragma once
// One-time geometry loading for campaign-style analytics.
//
// Simulation meshes are static across a run: XGC1 writes thousands of dpot
// timesteps over the same mesh. The per-level meshes and restoration
// mappings are therefore campaign-lifetime artifacts — read and deserialized
// once, then shared by every ProgressiveReader that analyzes a timestep.
// Passing a GeometryCache to ProgressiveReader removes geometry I/O from the
// per-read critical path, which is the regime the paper's Figs. 9-11 measure.

#include <memory>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/types.hpp"
#include "mesh/tri_mesh.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::core {

/// The container's level count N, from its `levels` attribute. Throws
/// canopus::Error naming the attribute when it is missing or not an integer
/// in [1, 2^32).
std::size_t container_levels(const adios::BpReader& reader);

/// Process-wide memoized mesh::spatial_order, keyed by a geometry
/// fingerprint (vertex count, bounds, CRC-32 of the coordinate bytes).
/// Campaign meshes are static across thousands of timesteps, and writer and
/// reader both need the same Morton ordering for every chunked delta level —
/// memoizing here means the O(n log n) sort runs once per distinct mesh per
/// process instead of once per refactor/refine call. Thread-safe; the
/// returned vector is immutable and shared.
std::shared_ptr<const std::vector<mesh::VertexId>> cached_spatial_order(
    const mesh::TriMesh& mesh);

struct GeometryCache {
  /// meshes[l] is G^l; size = level count.
  std::vector<mesh::TriMesh> meshes;
  /// mappings[l] restores level l from level l+1; size = level count - 1.
  std::vector<VertexMapping> mappings;
  /// orders[l] is the Morton ordering of meshes[l], prewarmed by load() via
  /// cached_spatial_order so per-timestep refines never recompute it.
  std::vector<std::shared_ptr<const std::vector<mesh::VertexId>>> orders;

  std::size_t level_count() const { return meshes.size(); }

  /// Morton ordering of level l (from the prewarmed cache).
  const std::vector<mesh::VertexId>& order(std::size_t level) const {
    return *orders[level];
  }

  /// Reads every mesh and mapping block of `var` from the container.
  /// `io_seconds`, when given, receives the simulated one-time read cost.
  static GeometryCache load(storage::StorageHierarchy& hierarchy,
                            const std::string& path, const std::string& var,
                            double* io_seconds = nullptr);
};

}  // namespace canopus::core
