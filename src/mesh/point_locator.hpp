#pragma once
// Uniform-grid point location over a triangular mesh.
//
// Delta calculation (Algorithm 2) and restoration (Algorithm 3) both need,
// for every fine-level vertex, the coarse-level triangle that contains it.
// Canopus stores that mapping in metadata during refactoring; this locator
// is what builds it. The brute-force O(V·T) scan the paper warns about is
// replaced by bucketing triangle bounding boxes into a uniform grid, stored
// as flat CSR arrays. Points outside every triangle (the rim that edge
// collapses shrink away) are answered by a ring search over the same grid
// that stops once no unvisited cell can hold a nearer projection.

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "mesh/tri_mesh.hpp"

namespace canopus::mesh {

/// Barycentric slack of point location: p lies in a triangle when none of
/// its weights there is below -kLocateTolerance.
inline constexpr double kLocateTolerance = 1e-10;

/// True when barycentric weights `w` place their point in the triangle.
inline bool within_triangle(const std::array<double, 3>& w) {
  return w[0] >= -kLocateTolerance && w[1] >= -kLocateTolerance &&
         w[2] >= -kLocateTolerance;
}

/// The weights point location gives p in triangle (a, b, c): barycentric(p,
/// a, b, c) when p lies in the triangle, otherwise those clamped at zero and
/// renormalized, which projects p into the triangle along barycentric axes.
/// A pure function of the four points, so the writer and the reader of a
/// mapping derive the same bits from the same geometry. A triangle that
/// leaves no weight after clamping yields NaN weights.
inline std::array<double, 3> location_weights(Vec2 p, Vec2 a, Vec2 b, Vec2 c) {
  auto w = barycentric(p, a, b, c);
  if (within_triangle(w)) return w;
  for (double& wi : w) wi = std::max(0.0, wi);
  const double sum = w[0] + w[1] + w[2];
  for (double& wi : w) wi /= sum;
  return w;
}

/// Result of a point query: containing triangle plus its location_weights.
struct Location {
  TriangleId triangle = static_cast<TriangleId>(-1);
  std::array<double, 3> weights{0.0, 0.0, 0.0};
  /// False when the point was outside every triangle and the nearest triangle
  /// with clamped weights was used instead (boundary shrinkage after edge
  /// collapses makes this unavoidable near the rim).
  bool exact = true;
};

class PointLocator {
 public:
  /// Builds the grid index; `cells_per_triangle` tunes grid resolution.
  explicit PointLocator(const TriMesh& mesh, double cells_per_triangle = 1.0);

  /// Locates p; falls back to the nearest triangle when p is outside the mesh.
  /// The fallback picks the triangle whose clamped barycentric projection of
  /// p is nearest, ties to the lowest triangle id.
  Location locate(Vec2 p) const;

  /// Exact containment only: returns nullopt for points outside every
  /// triangle instead of the nearest-triangle fallback. Use for dense queries
  /// like rasterization where misses are expected and cheap.
  std::optional<Location> try_locate(Vec2 p) const;

  std::size_t grid_nx() const { return nx_; }
  std::size_t grid_ny() const { return ny_; }

 private:
  std::size_t cell_of(Vec2 p) const;
  Location nearest_fallback(Vec2 p) const;

  const TriMesh& mesh_;
  Aabb bounds_;
  std::size_t nx_ = 1, ny_ = 1;
  double inv_dx_ = 0.0, inv_dy_ = 0.0;
  /// Absolute rounding allowance for the fallback's stop rule.
  double slack_ = 0.0;
  /// CSR grid: cell c lists cell_tris_[cell_start_[c] .. cell_start_[c+1]),
  /// in ascending triangle id.
  std::vector<std::size_t> cell_start_;
  std::vector<TriangleId> cell_tris_;
};

}  // namespace canopus::mesh
