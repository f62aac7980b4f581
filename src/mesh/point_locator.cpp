#include "mesh/point_locator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/assert.hpp"

namespace canopus::mesh {

PointLocator::PointLocator(const TriMesh& mesh, double cells_per_triangle)
    : mesh_(mesh) {
  CANOPUS_CHECK(mesh.triangle_count() > 0, "cannot index an empty mesh");
  bounds_ = mesh.bounds();
  const double target =
      std::max(1.0, cells_per_triangle * static_cast<double>(mesh.triangle_count()));
  const double aspect = std::max(bounds_.width(), 1e-300) /
                        std::max(bounds_.height(), 1e-300);
  ny_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(target / aspect)));
  nx_ = std::max<std::size_t>(1, static_cast<std::size_t>(target / static_cast<double>(ny_)));
  inv_dx_ = bounds_.width() > 0.0 ? static_cast<double>(nx_) / bounds_.width() : 0.0;
  inv_dy_ = bounds_.height() > 0.0 ? static_cast<double>(ny_) / bounds_.height() : 0.0;
  // Covers the rounding in cell_of, in the fallback's cell-distance bound and
  // in a clamped projection that lands just outside its triangle's box.
  slack_ = 1e-9 * (bounds_.width() + bounds_.height() +
                   std::max({std::abs(bounds_.lo.x), std::abs(bounds_.lo.y),
                             std::abs(bounds_.hi.x), std::abs(bounds_.hi.y)}));

  // Each triangle is bucketed into every cell its bounding box touches.
  const auto& verts = mesh.vertices();
  auto for_each_cell = [&](TriangleId t, auto&& fn) {
    const auto& tri = mesh.triangle(t);
    Aabb box;
    box.lo = box.hi = verts[tri.v[0]];
    box.expand(verts[tri.v[1]]);
    box.expand(verts[tri.v[2]]);
    const auto c0 = cell_of(box.lo);
    const auto c1 = cell_of(box.hi);
    for (std::size_t y = c0 / nx_; y <= c1 / nx_; ++y) {
      for (std::size_t x = c0 % nx_; x <= c1 % nx_; ++x) fn(y * nx_ + x);
    }
  };
  cell_start_.assign(nx_ * ny_ + 1, 0);
  for (TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    for_each_cell(t, [&](std::size_t c) { ++cell_start_[c + 1]; });
  }
  std::partial_sum(cell_start_.begin(), cell_start_.end(), cell_start_.begin());
  cell_tris_.resize(cell_start_.back());
  std::vector<std::size_t> next(cell_start_.begin(), cell_start_.end() - 1);
  for (TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    for_each_cell(t, [&](std::size_t c) { cell_tris_[next[c]++] = t; });
  }
}

std::size_t PointLocator::cell_of(Vec2 p) const {
  auto clampi = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t x = clampi((p.x - bounds_.lo.x) * inv_dx_, nx_);
  const std::size_t y = clampi((p.y - bounds_.lo.y) * inv_dy_, ny_);
  return y * nx_ + x;
}

std::optional<Location> PointLocator::try_locate(Vec2 p) const {
  const auto& verts = mesh_.vertices();
  const std::size_t c = cell_of(p);
  for (std::size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
    const TriangleId t = cell_tris_[k];
    const auto& tri = mesh_.triangle(t);
    const auto w = barycentric(p, verts[tri.v[0]], verts[tri.v[1]], verts[tri.v[2]]);
    constexpr double eps = 1e-10;
    if (w[0] >= -eps && w[1] >= -eps && w[2] >= -eps) {
      return Location{t, w, true};
    }
  }
  return std::nullopt;
}

Location PointLocator::locate(Vec2 p) const {
  if (const auto hit = try_locate(p)) return *hit;
  return nearest_fallback(p);
}

Location PointLocator::nearest_fallback(Vec2 p) const {
  // Visits cells in Chebyshev rings around p's cell. A triangle's clamped
  // projection is a convex combination of its corners, so it lies in the
  // triangle's bounding box and hence in a cell the triangle is bucketed in.
  // Once every unvisited cell is farther from p than the best projection so
  // far, no unvisited triangle can beat or tie it. The answer therefore equals
  // a scan of all triangles in id order keeping the first strict minimum.
  const auto& verts = mesh_.vertices();
  Location best;
  double best_d2 = std::numeric_limits<double>::infinity();
  auto consider = [&](TriangleId t) {
    const auto& tri = mesh_.triangle(t);
    const Vec2 a = verts[tri.v[0]], b = verts[tri.v[1]], c = verts[tri.v[2]];
    auto w = barycentric(p, a, b, c);
    // Clamp negative weights to zero and renormalize: projects p into the
    // triangle along barycentric axes (adequate for near-boundary points).
    for (double& wi : w) wi = std::max(0.0, wi);
    const double sum = w[0] + w[1] + w[2];
    if (sum <= 0.0) return;
    for (double& wi : w) wi /= sum;
    const Vec2 proj = a * w[0] + b * w[1] + c * w[2];
    const double d2 = (proj - p).norm2();
    // NaN and infinite distances never win; equal ones go to the lowest id.
    if (!std::isfinite(d2)) return;
    if (d2 < best_d2 || (d2 == best_d2 && t < best.triangle)) {
      best_d2 = d2;
      best = Location{t, w, false};
    }
  };
  auto visit = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
    const auto cell = static_cast<std::size_t>(y) * nx_ + static_cast<std::size_t>(x);
    for (std::size_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
      consider(cell_tris_[k]);
    }
  };
  const double cw = bounds_.width() / static_cast<double>(nx_);
  const double ch = bounds_.height() / static_cast<double>(ny_);
  // Squared distance from p to the block of cells [x0, x1] x [y0, y1].
  auto block_d2 = [&](std::ptrdiff_t x0, std::ptrdiff_t x1, std::ptrdiff_t y0,
                      std::ptrdiff_t y1) {
    const double lx = bounds_.lo.x + static_cast<double>(x0) * cw;
    const double hx = bounds_.lo.x + static_cast<double>(x1 + 1) * cw;
    const double ly = bounds_.lo.y + static_cast<double>(y0) * ch;
    const double hy = bounds_.lo.y + static_cast<double>(y1 + 1) * ch;
    const double dx = std::max({lx - p.x, 0.0, p.x - hx});
    const double dy = std::max({ly - p.y, 0.0, p.y - hy});
    return dx * dx + dy * dy;
  };

  const auto nx = static_cast<std::ptrdiff_t>(nx_);
  const auto ny = static_cast<std::ptrdiff_t>(ny_);
  const std::size_t home = cell_of(p);
  const auto cx = static_cast<std::ptrdiff_t>(home % nx_);
  const auto cy = static_cast<std::ptrdiff_t>(home / nx_);
  const std::ptrdiff_t last_ring = std::max({cx, nx - 1 - cx, cy, ny - 1 - cy});
  for (std::ptrdiff_t r = 0; r <= last_ring; ++r) {
    const std::ptrdiff_t x0 = cx - r, x1 = cx + r, y0 = cy - r, y1 = cy + r;
    const std::ptrdiff_t xa = std::max<std::ptrdiff_t>(x0, 0);
    const std::ptrdiff_t xb = std::min(x1, nx - 1);
    if (y0 >= 0) {
      for (std::ptrdiff_t x = xa; x <= xb; ++x) visit(x, y0);
    }
    if (r > 0) {
      if (y1 < ny) {
        for (std::ptrdiff_t x = xa; x <= xb; ++x) visit(x, y1);
      }
      const std::ptrdiff_t ya = std::max<std::ptrdiff_t>(y0 + 1, 0);
      const std::ptrdiff_t yb = std::min(y1 - 1, ny - 1);
      for (std::ptrdiff_t y = ya; y <= yb; ++y) {
        if (x0 >= 0) visit(x0, y);
        if (x1 < nx) visit(x1, y);
      }
    }
    if (r == last_ring || !std::isfinite(best_d2)) continue;
    // Unvisited cells: the columns left and right of the square, and the
    // rows above and below it within its columns.
    double rest_d2 = std::numeric_limits<double>::infinity();
    if (x0 > 0) rest_d2 = std::min(rest_d2, block_d2(0, x0 - 1, 0, ny - 1));
    if (x1 < nx - 1) rest_d2 = std::min(rest_d2, block_d2(x1 + 1, nx - 1, 0, ny - 1));
    if (y0 > 0) rest_d2 = std::min(rest_d2, block_d2(xa, xb, 0, y0 - 1));
    if (y1 < ny - 1) rest_d2 = std::min(rest_d2, block_d2(xa, xb, y1 + 1, ny - 1));
    const double gap = std::sqrt(rest_d2) * (1.0 - 1e-9) - slack_;
    if (gap > 0.0 && gap * gap > best_d2) break;
  }
  CANOPUS_CHECK(best.triangle != static_cast<TriangleId>(-1),
                "point location failed: mesh fully degenerate");
  return best;
}

}  // namespace canopus::mesh
