#include "core/delta.hpp"

#include <cmath>
#include <vector>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace canopus::core {

namespace {
/// Minimum per-task iteration count for the per-vertex loops below: tasks
/// cheaper than this cost more to enqueue than to run.
constexpr std::size_t kVertexGrain = 2048;

util::ThreadPool& pool_or_global(util::ThreadPool* pool) {
  return pool ? *pool : util::ThreadPool::global();
}

/// The gradient Estimate's share of each corner's first-order Taylor term:
/// est(x) = sum_k w_k * (v_k + 3/4 * g_k . (x - p_k)). A measured constant
/// (DESIGN.md, Delta): 3/4 stored the fewest bytes, or within 0.7% of the
/// fewest, of every share tried on every dataset and bound.
constexpr double kGradientShare = 0.75;

/// The coarse field's gradient at every coarse vertex: the area-weighted mean
/// of the linear gradients of the coarse triangles that use it, zero where
/// none has area. A triangle with corners p0, p1, p2 and values v0, v1, v2
/// and det = (p1 - p0) x (p2 - p0) contributes |det| to each corner's weight
/// and sign(det) * (d1 * e2.y - d2 * e1.y, d2 * e1.x - d1 * e2.x) to its sum
/// (e_i = p_i - p0, d_i = v_i - v0): its gradient times twice its area. One
/// serial pass in triangle order, so the sums do not depend on the worker
/// count.
std::vector<mesh::Vec2> corner_gradients(const mesh::TriMesh& coarse,
                                         const mesh::Field& values) {
  std::vector<double> weight(coarse.vertex_count(), 0.0);
  std::vector<mesh::Vec2> sum(coarse.vertex_count());
  for (const auto& tri : coarse.triangles()) {
    const mesh::Vec2 p0 = coarse.vertex(tri.v[0]);
    const mesh::Vec2 e1 = coarse.vertex(tri.v[1]) - p0;
    const mesh::Vec2 e2 = coarse.vertex(tri.v[2]) - p0;
    const double det = e1.cross(e2);
    if (det == 0.0) continue;
    const double d1 = values[tri.v[1]] - values[tri.v[0]];
    const double d2 = values[tri.v[2]] - values[tri.v[0]];
    const double sign = det > 0.0 ? 1.0 : -1.0;
    const mesh::Vec2 g{sign * (d1 * e2.y - d2 * e1.y),
                       sign * (d2 * e1.x - d1 * e2.x)};
    for (const auto v : tri.v) {
      weight[v] += std::abs(det);
      sum[v] += g;
    }
  }
  for (std::size_t v = 0; v < sum.size(); ++v) {
    sum[v] = weight[v] > 0.0 ? sum[v] / weight[v] : mesh::Vec2{};
  }
  return sum;
}

/// Estimate(.) over one coarse level, for the fine vertices at `fine`. Only
/// the weight-reading modes touch geometry: they derive the weights point
/// location gave each vertex; the gradient mode also reads the coarse
/// gradients, computed once here.
class Estimator {
 public:
  Estimator(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
            std::span<const mesh::Vec2> fine, const VertexMapping& mapping,
            EstimateMode mode)
      : coarse_(coarse),
        values_(coarse_values),
        fine_(fine),
        mapping_(mapping),
        mode_(mode) {
    if (mode == EstimateMode::kGradient) {
      gradients_ = corner_gradients(coarse, coarse_values);
    }
  }

  EstimateMode mode() const { return mode_; }

  /// Estimate(.) for fine vertex `x` under `Mode` (== mode()).
  template <EstimateMode Mode>
  double at(std::size_t x) const {
    const auto& tri = coarse_.triangle(mapping_.triangle[x]);
    const double vi = values_[tri.v[0]];
    const double vj = values_[tri.v[1]];
    const double vk = values_[tri.v[2]];
    if constexpr (Mode == EstimateMode::kUniformThirds) {
      return (vi + vj + vk) / 3.0;
    } else {
      const mesh::Vec2 p = fine_[x];
      const mesh::Vec2 pi = coarse_.vertex(tri.v[0]);
      const mesh::Vec2 pj = coarse_.vertex(tri.v[1]);
      const mesh::Vec2 pk = coarse_.vertex(tri.v[2]);
      const auto w = mesh::location_weights(p, pi, pj, pk);
      if constexpr (Mode == EstimateMode::kBarycentric) {
        return w[0] * vi + w[1] * vj + w[2] * vk;
      } else {
        static_assert(Mode == EstimateMode::kGradient);
        // Corner c's value extended to p along its gradient.
        const auto extended = [&](double v, mesh::Vec2 corner, mesh::VertexId c) {
          const mesh::Vec2 g = gradients_[c];
          const mesh::Vec2 d = p - corner;
          return v + kGradientShare * (g.x * d.x + g.y * d.y);
        };
        return w[0] * extended(vi, pi, tri.v[0]) +
               w[1] * extended(vj, pj, tri.v[1]) +
               w[2] * extended(vk, pk, tri.v[2]);
      }
    }
  }

 private:
  const mesh::TriMesh& coarse_;
  const mesh::Field& values_;
  std::span<const mesh::Vec2> fine_;
  const VertexMapping& mapping_;
  EstimateMode mode_;
  std::vector<mesh::Vec2> gradients_;  // per coarse vertex (kGradient only)
};

/// Residual/restore loop over [lo, hi), shared by compute_delta and
/// restore_level:
///   out[x] = in[x] - Estimate(x)   (add = false, Algorithm 2)
///   out[x] = in[x] + Estimate(x)   (add = true,  Algorithm 3)
template <EstimateMode Mode>
void apply_range(const Estimator& estimate, const double* in, double* out,
                 bool add, std::size_t lo, std::size_t hi) {
  for (std::size_t x = lo; x < hi; ++x) {
    const double est = estimate.at<Mode>(x);
    out[x] = add ? in[x] + est : in[x] - est;
  }
}

/// apply_range under the Estimator's mode, chosen once per range.
void apply_estimate(const Estimator& estimate, const double* in, double* out,
                    bool add, std::size_t lo, std::size_t hi) {
  switch (estimate.mode()) {
    case EstimateMode::kUniformThirds:
      return apply_range<EstimateMode::kUniformThirds>(estimate, in, out, add, lo, hi);
    case EstimateMode::kBarycentric:
      return apply_range<EstimateMode::kBarycentric>(estimate, in, out, add, lo, hi);
    case EstimateMode::kGradient:
      return apply_range<EstimateMode::kGradient>(estimate, in, out, add, lo, hi);
  }
  CANOPUS_UNREACHABLE("unknown estimate mode");
}

void check_sizes(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                 std::span<const mesh::Vec2> fine, const mesh::Field& fine_field,
                 const VertexMapping& mapping, const char* where) {
  CANOPUS_CHECK(fine_field.size() == mapping.size() &&
                    fine.size() == mapping.size(),
                std::string(where) + ": fine mesh / field / mapping size mismatch");
  CANOPUS_CHECK(coarse_values.size() == coarse.vertex_count(),
                std::string(where) + ": coarse field size mismatch");
}
}  // namespace

VertexMapping build_mapping(const mesh::TriMesh& fine, const mesh::TriMesh& coarse,
                            util::ThreadPool* pool) {
  const mesh::PointLocator locator(coarse);
  VertexMapping m;
  m.triangle.resize(fine.vertex_count());
  // Point location per vertex is independent; fan out on the pool (this is
  // the dominant cost of the refactoring write path).
  pool_or_global(pool).parallel_for(
      0, fine.vertex_count(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
          m.triangle[v] = locator.locate(fine.vertex(v)).triangle;
        }
      },
      /*grain=*/512);
  return m;
}

std::vector<std::uint8_t> estimate_support(const mesh::TriMesh& coarse,
                                           const VertexMapping& mapping,
                                           EstimateMode mode,
                                           const std::vector<std::uint8_t>& fine) {
  CANOPUS_CHECK(fine.size() == mapping.size(),
                "estimate support: fine marks / mapping size mismatch");
  std::vector<std::uint8_t> corner(coarse.vertex_count(), 0);
  for (std::size_t x = 0; x < fine.size(); ++x) {
    if (fine[x] == 0) continue;
    for (const auto c : coarse.triangle(mapping.triangle[x]).v) corner[c] = 1;
  }
  if (mode != EstimateMode::kGradient) return corner;
  std::vector<std::uint8_t> support = corner;
  for (const auto& tri : coarse.triangles()) {
    if (corner[tri.v[0]] != 0 || corner[tri.v[1]] != 0 || corner[tri.v[2]] != 0) {
      for (const auto v : tri.v) support[v] = 1;
    }
  }
  return support;
}

mesh::Field compute_delta(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          std::span<const mesh::Vec2> fine,
                          const mesh::Field& fine_values,
                          const VertexMapping& mapping, EstimateMode mode,
                          util::ThreadPool* pool) {
  check_sizes(coarse, coarse_values, fine, fine_values, mapping, "delta");
  const Estimator estimate(coarse, coarse_values, fine, mapping, mode);
  mesh::Field delta(fine_values.size());
  // Each entry is an independent pure function of its inputs, so splitting
  // the range cannot change a single bit of the output.
  pool_or_global(pool).parallel_for(
      0, fine_values.size(),
      [&](std::size_t lo, std::size_t hi) {
        apply_estimate(estimate, fine_values.data(), delta.data(),
                       /*add=*/false, lo, hi);
      },
      kVertexGrain);
  return delta;
}

mesh::Field restore_level(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          std::span<const mesh::Vec2> fine, const mesh::Field& delta,
                          const VertexMapping& mapping, EstimateMode mode,
                          util::ThreadPool* pool) {
  check_sizes(coarse, coarse_values, fine, delta, mapping, "restore");
  const Estimator estimate(coarse, coarse_values, fine, mapping, mode);
  mesh::Field restored(delta.size());
  pool_or_global(pool).parallel_for(
      0, delta.size(),
      [&](std::size_t lo, std::size_t hi) {
        apply_estimate(estimate, delta.data(), restored.data(), /*add=*/true,
                       lo, hi);
      },
      kVertexGrain);
  return restored;
}

}  // namespace canopus::core
