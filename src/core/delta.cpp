#include "core/delta.hpp"

#include <algorithm>

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

/// Residual/restore loop over [lo, hi), shared by compute_delta and
/// restore_level:
///   out[x] = in[x] - Estimate(x)   (add = false, Algorithm 2)
///   out[x] = in[x] + Estimate(x)   (add = true,  Algorithm 3)
void apply_estimate(const mesh::TriMesh& coarse,
                    const mesh::Field& coarse_values,
                    const VertexMapping& mapping, EstimateMode mode,
                    const double* in, double* out, bool add, std::size_t lo,
                    std::size_t hi) {
  for (std::size_t x = lo; x < hi; ++x) {
    const double est = estimate_value(coarse, coarse_values, mapping, x, mode);
    out[x] = add ? in[x] + est : in[x] - est;
  }
}
}  // namespace

VertexMapping build_mapping(const mesh::TriMesh& fine, const mesh::TriMesh& coarse,
                            util::ThreadPool* pool) {
  const mesh::PointLocator locator(coarse);
  VertexMapping m;
  m.triangle.resize(fine.vertex_count());
  m.weights.resize(fine.vertex_count());
  // Point location per vertex is independent; fan out on the pool (this is
  // the dominant cost of the refactoring write path).
  pool_or_global(pool).parallel_for(
      0, fine.vertex_count(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
          const auto loc = locator.locate(fine.vertex(v));
          m.triangle[v] = loc.triangle;
          m.weights[v] = loc.weights;
        }
      },
      /*grain=*/512);
  // Quantize before anyone computes deltas against these weights, so the
  // persisted mapping reproduces the in-memory one exactly.
  m.quantize_weights();
  return m;
}

double estimate_value(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                      const VertexMapping& mapping, std::size_t fine_vertex,
                      EstimateMode mode) {
  const auto& tri = coarse.triangle(mapping.triangle[fine_vertex]);
  const double vi = coarse_values[tri.v[0]];
  const double vj = coarse_values[tri.v[1]];
  const double vk = coarse_values[tri.v[2]];
  const auto& w = mapping.weights[fine_vertex];
  switch (mode) {
    case EstimateMode::kUniformThirds:
      return (vi + vj + vk) / 3.0;
    case EstimateMode::kBarycentric:
      return w[0] * vi + w[1] * vj + w[2] * vk;
    case EstimateMode::kNearestVertex: {
      const auto best = static_cast<std::size_t>(
          std::max_element(w.begin(), w.end()) - w.begin());
      return coarse_values[tri.v[best]];
    }
  }
  CANOPUS_UNREACHABLE("unknown estimate mode");
}

mesh::Field compute_delta(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          const mesh::Field& fine_values, const VertexMapping& mapping,
                          EstimateMode mode, util::ThreadPool* pool) {
  CANOPUS_CHECK(fine_values.size() == mapping.size(),
                "delta: fine field / mapping size mismatch");
  CANOPUS_CHECK(coarse_values.size() == coarse.vertex_count(),
                "delta: coarse field size mismatch");
  mesh::Field delta(fine_values.size());
  // Each entry is an independent pure function of its inputs, so splitting
  // the range cannot change a single bit of the output.
  pool_or_global(pool).parallel_for(
      0, fine_values.size(),
      [&](std::size_t lo, std::size_t hi) {
        apply_estimate(coarse, coarse_values, mapping, mode,
                       fine_values.data(), delta.data(), /*add=*/false, lo, hi);
      },
      kVertexGrain);
  return delta;
}

mesh::Field restore_level(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          const mesh::Field& delta, const VertexMapping& mapping,
                          EstimateMode mode, util::ThreadPool* pool) {
  CANOPUS_CHECK(delta.size() == mapping.size(),
                "restore: delta / mapping size mismatch");
  CANOPUS_CHECK(coarse_values.size() == coarse.vertex_count(),
                "restore: coarse field size mismatch");
  mesh::Field fine(delta.size());
  pool_or_global(pool).parallel_for(
      0, delta.size(),
      [&](std::size_t lo, std::size_t hi) {
        apply_estimate(coarse, coarse_values, mapping, mode, delta.data(),
                       fine.data(), /*add=*/true, lo, hi);
      },
      kVertexGrain);
  return fine;
}

}  // namespace canopus::core
