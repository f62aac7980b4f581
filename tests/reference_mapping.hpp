#pragma once
// The restoration mapping as it was when every entry held three double
// weights, whatever the Estimate mode: its triangles and its uniform
// Estimate, copied verbatim. Its weights are PointLocator::locate's, in
// double; the weight-reading Estimates read them as they are. Every
// restored field is compared against it bit for bit.
//
// reference_levels() restores a container's variable level by level from
// its stored base and deltas with this mapping, so a reader's fields can be
// checked against it at every level, on any read path.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/geometry_cache.hpp"
#include "core/types.hpp"
#include "mesh/point_locator.hpp"
#include "mesh/tri_mesh.hpp"
#include "storage/hierarchy.hpp"
#include "util/assert.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::test {

struct ReferenceMapping {
  std::vector<std::uint32_t> triangle;            // coarse triangle per vertex
  std::vector<std::array<double, 3>> weights;     // barycentric weights

  std::size_t size() const { return triangle.size(); }

  /// The triangles as a block stores them after its layout byte: the
  /// varint entry count, then a varint triangle id per entry.
  void serialize_triangles(util::ByteWriter& out) const {
    out.put_varint(triangle.size());
    for (const auto t : triangle) out.put_varint(t);
  }
};

/// The mapping located serially (the parallel builder fills the same
/// entries), with the locator's weights as it returns them.
inline ReferenceMapping reference_build_mapping(const mesh::TriMesh& fine,
                                                const mesh::TriMesh& coarse) {
  const mesh::PointLocator locator(coarse);
  ReferenceMapping located;
  located.triangle.resize(fine.vertex_count());
  located.weights.resize(fine.vertex_count());
  for (std::size_t v = 0; v < fine.vertex_count(); ++v) {
    const auto loc = locator.locate(fine.vertex(v));
    located.triangle[v] = loc.triangle;
    located.weights[v] = loc.weights;
  }
  return located;
}

inline double reference_estimate(const mesh::TriMesh& coarse,
                                 const mesh::Field& coarse_values,
                                 const ReferenceMapping& mapping,
                                 std::size_t fine_vertex,
                                 core::EstimateMode mode) {
  const auto& tri = coarse.triangle(mapping.triangle[fine_vertex]);
  const double vi = coarse_values[tri.v[0]];
  const double vj = coarse_values[tri.v[1]];
  const double vk = coarse_values[tri.v[2]];
  const auto& w = mapping.weights[fine_vertex];
  switch (mode) {
    case core::EstimateMode::kUniformThirds:
      return (vi + vj + vk) / 3.0;
    case core::EstimateMode::kBarycentric:
      return w[0] * vi + w[1] * vj + w[2] * vk;
    case core::EstimateMode::kNearestVertex: {
      const auto best = static_cast<std::size_t>(
          std::max_element(w.begin(), w.end()) - w.begin());
      return coarse_values[tri.v[best]];
    }
  }
  CANOPUS_UNREACHABLE("unknown estimate mode");
}

/// Algorithm 2 with the reference mapping.
inline mesh::Field reference_delta(const mesh::TriMesh& coarse,
                                   const mesh::Field& coarse_values,
                                   const mesh::Field& fine_values,
                                   const ReferenceMapping& mapping,
                                   core::EstimateMode mode) {
  mesh::Field delta(fine_values.size());
  for (std::size_t x = 0; x < delta.size(); ++x) {
    delta[x] = fine_values[x] -
               reference_estimate(coarse, coarse_values, mapping, x, mode);
  }
  return delta;
}

/// Algorithm 3 with the reference mapping.
inline mesh::Field reference_restore(const mesh::TriMesh& coarse,
                                     const mesh::Field& coarse_values,
                                     const mesh::Field& delta,
                                     const ReferenceMapping& mapping,
                                     core::EstimateMode mode) {
  mesh::Field fine(delta.size());
  for (std::size_t x = 0; x < fine.size(); ++x) {
    fine[x] = delta[x] +
              reference_estimate(coarse, coarse_values, mapping, x, mode);
  }
  return fine;
}

/// Level `level`'s stored delta of `var`, decoded and in vertex order.
/// When `chunks` is given, only those chunks are applied and the rest stay
/// zero, as a regional refine leaves them.
inline mesh::Field stored_delta(const adios::BpReader& reader,
                                const std::string& var, std::uint32_t level,
                                const mesh::TriMesh& fine,
                                const std::vector<std::uint32_t>* chunks = nullptr) {
  const auto info = reader.inq_var(var);
  const auto count = info.block(adios::BlockKind::kDelta, level)->chunk_count;
  mesh::Field stored;
  for (std::uint32_t c = 0; c < count; ++c) {
    auto part = reader.read_doubles_chunk(var, adios::BlockKind::kDelta, level, c);
    if (chunks != nullptr &&
        std::find(chunks->begin(), chunks->end(), c) == chunks->end()) {
      std::fill(part.begin(), part.end(), 0.0);
    }
    stored.insert(stored.end(), part.begin(), part.end());
  }
  if (count == 1) return stored;
  // Chunked deltas are stored in the fine mesh's Morton order.
  const auto order = mesh::spatial_order(fine);
  mesh::Field delta(stored.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) delta[order[pos]] = stored[pos];
  return delta;
}

/// The meshes of `geometry_var`, one per level: the stored L0 mesh and the
/// levels its stored collapse logs rebuild (the CollapseReplay suites of
/// core_test and mesh_test hold them equal to the writer's cascade).
inline std::vector<mesh::TriMesh> stored_meshes(const adios::BpReader& reader,
                                                const std::string& geometry_var) {
  return core::GeometryCache::load(reader, geometry_var).meshes;
}

/// levels[l] is L^l of `var` restored with the reference mapping from the
/// stored base and deltas: what a full refine_to(l) must yield.
inline std::vector<mesh::Field> reference_levels(
    storage::StorageHierarchy& tiers, const std::string& path,
    const std::string& var, const std::string& geometry_var,
    core::EstimateMode mode) {
  const adios::BpReader reader(tiers, path);
  const auto n = static_cast<std::uint32_t>(core::container_levels(reader));
  const auto meshes = stored_meshes(reader, geometry_var);
  std::vector<mesh::Field> levels(n);
  levels[n - 1] = reader.read_doubles(var, adios::BlockKind::kBase, n - 1);
  for (std::uint32_t l = n - 1; l-- > 0;) {
    levels[l] = reference_restore(meshes[l + 1], levels[l + 1],
                                  stored_delta(reader, var, l, meshes[l]),
                                  reference_build_mapping(meshes[l], meshes[l + 1]),
                                  mode);
  }
  return levels;
}

/// True when `a` and `b` hold the same doubles, bit for bit.
inline bool same_bits(const mesh::Field& a, const mesh::Field& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           std::uint64_t bx, by;
           std::memcpy(&bx, &x, sizeof bx);
           std::memcpy(&by, &y, sizeof by);
           return bx == by;
         });
}

}  // namespace canopus::test
