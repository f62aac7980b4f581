#pragma once
// The restoration mapping as it was when every entry held three double
// weights, whatever the Estimate mode: its triangles and its uniform
// Estimate, copied verbatim. Its weights are PointLocator::locate's, in
// double; the weight-reading Estimates read them as they are. The gradient
// Estimate is written here from its formula (DESIGN.md, Delta), not from
// core/delta.cpp. Every restored field is compared against it bit for bit.
//
// reference_levels() restores a container's variable level by level from
// its stored base and deltas with this mapping, so a reader's fields can be
// checked against it at every level, on any read path.

#include <algorithm>
#include <array>
#include <cmath>
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

namespace canopus::test {

struct ReferenceMapping {
  std::vector<std::uint32_t> triangle;            // coarse triangle per vertex
  std::vector<std::array<double, 3>> weights;     // barycentric weights
  std::vector<mesh::Vec2> point;                  // the fine vertex itself

  std::size_t size() const { return triangle.size(); }
};

/// The mapping located serially (the parallel builder fills the same
/// entries), with the locator's weights as it returns them.
inline ReferenceMapping reference_build_mapping(const mesh::TriMesh& fine,
                                                const mesh::TriMesh& coarse) {
  const mesh::PointLocator locator(coarse);
  ReferenceMapping located;
  located.triangle.resize(fine.vertex_count());
  located.weights.resize(fine.vertex_count());
  located.point.resize(fine.vertex_count());
  for (std::size_t v = 0; v < fine.vertex_count(); ++v) {
    const auto loc = locator.locate(fine.vertex(v));
    located.triangle[v] = loc.triangle;
    located.weights[v] = loc.weights;
    located.point[v] = fine.vertex(v);
  }
  return located;
}

/// The gradient Estimate's corner gradients: for every coarse vertex, the
/// sum over the coarse triangles that use it, taken in triangle order, of
/// sign(det) * (du * b.y - dv * a.y, dv * a.x - du * b.x), divided by the
/// sum of their |det|, where a and b are the triangle's second and third
/// corners less its first, du and dv the same differences of the values,
/// and det = a.x * b.y - a.y * b.x. Triangles with det == 0 are skipped; a
/// vertex none of whose triangles is left gets zero.
inline std::vector<mesh::Vec2> reference_gradients(const mesh::TriMesh& coarse,
                                                   const mesh::Field& values) {
  const std::size_t n = coarse.vertex_count();
  std::vector<double> gx(n, 0.0), gy(n, 0.0), area2(n, 0.0);
  for (std::size_t t = 0; t < coarse.triangle_count(); ++t) {
    const auto& c = coarse.triangle(static_cast<mesh::TriangleId>(t)).v;
    const mesh::Vec2 o = coarse.vertex(c[0]);
    const double ax = coarse.vertex(c[1]).x - o.x;
    const double ay = coarse.vertex(c[1]).y - o.y;
    const double bx = coarse.vertex(c[2]).x - o.x;
    const double by = coarse.vertex(c[2]).y - o.y;
    const double det = ax * by - ay * bx;
    if (det == 0.0) continue;
    const double du = values[c[1]] - values[c[0]];
    const double dv = values[c[2]] - values[c[0]];
    const double s = det < 0.0 ? -1.0 : 1.0;
    const double nx = s * (du * by - dv * ay);
    const double ny = s * (dv * ax - du * bx);
    for (int k = 0; k < 3; ++k) {
      area2[c[k]] += std::fabs(det);
      gx[c[k]] += nx;
      gy[c[k]] += ny;
    }
  }
  std::vector<mesh::Vec2> g(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (area2[v] > 0.0) g[v] = {gx[v] / area2[v], gy[v] / area2[v]};
  }
  return g;
}

/// `gradients` is reference_gradients of the coarse level (read only by the
/// gradient Estimate): est = sum_k w_k * (v_k + 0.75 * g_k . (x - p_k)),
/// summed k = 0, 1, 2.
inline double reference_estimate(const mesh::TriMesh& coarse,
                                 const mesh::Field& coarse_values,
                                 const ReferenceMapping& mapping,
                                 const std::vector<mesh::Vec2>& gradients,
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
    case core::EstimateMode::kGradient: {
      const mesh::Vec2 x = mapping.point[fine_vertex];
      double est = 0.0;
      for (int k = 0; k < 3; ++k) {
        const mesh::Vec2 corner = coarse.vertex(tri.v[k]);
        const mesh::Vec2 g = gradients[tri.v[k]];
        const double taylor = g.x * (x.x - corner.x) + g.y * (x.y - corner.y);
        const double term = w[k] * (coarse_values[tri.v[k]] + 0.75 * taylor);
        est = k == 0 ? term : est + term;
      }
      return est;
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
  const auto gradients = reference_gradients(coarse, coarse_values);
  mesh::Field delta(fine_values.size());
  for (std::size_t x = 0; x < delta.size(); ++x) {
    delta[x] = fine_values[x] - reference_estimate(coarse, coarse_values,
                                                   mapping, gradients, x, mode);
  }
  return delta;
}

/// Algorithm 3 with the reference mapping.
inline mesh::Field reference_restore(const mesh::TriMesh& coarse,
                                     const mesh::Field& coarse_values,
                                     const mesh::Field& delta,
                                     const ReferenceMapping& mapping,
                                     core::EstimateMode mode) {
  const auto gradients = reference_gradients(coarse, coarse_values);
  mesh::Field fine(delta.size());
  for (std::size_t x = 0; x < fine.size(); ++x) {
    fine[x] = delta[x] + reference_estimate(coarse, coarse_values, mapping,
                                            gradients, x, mode);
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
  const auto geometry = core::GeometryCache::load(reader, geometry_var);
  std::vector<mesh::TriMesh> meshes;
  for (std::size_t l = 0; l < geometry.level_count(); ++l) {
    meshes.push_back(geometry.mesh(l));
  }
  return meshes;
}

/// The chunk index of `level`'s delta cut into `chunks`, as the writer lays
/// it out: the level's vertices in mesh::spatial_order, chunk c holding
/// storage positions [n * c / chunks, n * (c + 1) / chunks), its extent the
/// box of those vertices.
inline core::ChunkIndex reference_chunk_index(const mesh::TriMesh& level,
                                              std::uint32_t chunks) {
  const auto order = mesh::spatial_order(level);
  const std::uint64_t n = order.size();
  core::ChunkIndex index;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    core::ChunkIndex::Range range;
    range.start = n * c / chunks;
    range.count = n * (c + 1) / chunks - range.start;
    for (std::uint64_t k = 0; k < range.count; ++k) {
      const auto p = level.vertex(order[range.start + k]);
      auto& b = range.bbox;
      if (k == 0) {
        b.lo = b.hi = p;
      } else {
        b.lo.x = p.x < b.lo.x ? p.x : b.lo.x;
        b.lo.y = p.y < b.lo.y ? p.y : b.lo.y;
        b.hi.x = p.x > b.hi.x ? p.x : b.hi.x;
        b.hi.y = p.y > b.hi.y ? p.y : b.hi.y;
      }
    }
    index.chunks.push_back(range);
  }
  return index;
}

/// The chunks of level `next` a regional step toward `roi` must fetch so
/// that stacked regional steps toward it restore every vertex inside it as
/// full refines would: the chunks whose extent meets `roi`, and each chunk
/// holding a vertex that lies in `roi` or whose value a finer level's
/// Estimate reads for such a vertex (the three corners of its triangle;
/// under the gradient Estimate also every vertex of every triangle that has
/// one of those corners), level by level up from level 0. Ascending.
inline std::vector<std::uint32_t> reference_region_chunks(
    const std::vector<mesh::TriMesh>& meshes, std::uint32_t next,
    const core::ChunkIndex& index, const mesh::Aabb& roi,
    core::EstimateMode mode) {
  const auto inside = [&](mesh::Vec2 p) {
    return roi.lo.x <= p.x && p.x <= roi.hi.x && roi.lo.y <= p.y &&
           p.y <= roi.hi.y;
  };
  std::vector<bool> needed(meshes[0].vertex_count());
  for (std::size_t v = 0; v < needed.size(); ++v) {
    needed[v] = inside(meshes[0].vertex(static_cast<mesh::VertexId>(v)));
  }
  for (std::uint32_t m = 0; m < next; ++m) {
    const auto& coarse = meshes[m + 1];
    const auto mapping = reference_build_mapping(meshes[m], coarse);
    std::vector<bool> corner(coarse.vertex_count(), false);
    for (std::size_t x = 0; x < needed.size(); ++x) {
      if (!needed[x]) continue;
      for (const auto c : coarse.triangle(mapping.triangle[x]).v) corner[c] = true;
    }
    std::vector<bool> up = corner;
    if (mode == core::EstimateMode::kGradient) {
      for (std::size_t t = 0; t < coarse.triangle_count(); ++t) {
        const auto& tri = coarse.triangle(static_cast<mesh::TriangleId>(t));
        bool uses = false;
        for (const auto c : tri.v) uses = uses || corner[c];
        if (uses) {
          for (const auto c : tri.v) up[c] = true;
        }
      }
    }
    for (std::size_t v = 0; v < up.size(); ++v) {
      if (inside(coarse.vertex(static_cast<mesh::VertexId>(v)))) up[v] = true;
    }
    needed = std::move(up);
  }
  const auto order = mesh::spatial_order(meshes[next]);
  std::vector<std::uint32_t> chunks;
  for (std::uint32_t c = 0; c < index.chunks.size(); ++c) {
    const auto& range = index.chunks[c];
    const auto& b = range.bbox;
    bool take = !(b.hi.x < roi.lo.x || b.lo.x > roi.hi.x || b.hi.y < roi.lo.y ||
                  b.lo.y > roi.hi.y);
    for (std::uint64_t k = 0; k < range.count && !take; ++k) {
      take = needed[order[range.start + k]];
    }
    if (take) chunks.push_back(c);
  }
  return chunks;
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
