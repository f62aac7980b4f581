#pragma once
// Delta calculation and restoration — Algorithms 2 and 3 of the paper.
//
//   delta^{l-(l+1)}_x = L^l_x - Estimate(L^{l+1}_i, L^{l+1}_j, L^{l+1}_k)
//
// where (i, j, k) is the coarse triangle containing fine vertex x and
// Estimate is an affine combination of coarse values: its corners', and
// under the gradient Estimate also their neighbours' through the corner
// gradients (EstimateMode). Restoration is the exact inverse, so base +
// deltas reproduces the fine level up to codec loss.

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "mesh/point_locator.hpp"
#include "mesh/tri_mesh.hpp"
#include "util/thread_pool.hpp"

namespace canopus::core {

/// Builds the fine-vertex -> coarse-triangle mapping by point location in the
/// coarse mesh (the index Canopus persists to avoid the O(n^2) brute force).
/// `pool` selects the worker pool for the per-vertex fan-out (nullptr = the
/// process-global pool); results are identical for any pool.
VertexMapping build_mapping(const mesh::TriMesh& fine, const mesh::TriMesh& coarse,
                            util::ThreadPool* pool = nullptr);

/// Algorithm 2: delta between a fine level and its estimate from the coarse
/// level. `mapping` maps `fine`'s vertices into `coarse`; the weight-reading
/// modes take mesh::location_weights of each fine vertex in its triangle,
/// the weights PointLocator::locate gave it. Per-vertex work fans out on
/// `pool` (nullptr = global); the output is bitwise-identical to the serial
/// loop for any worker count.
mesh::Field compute_delta(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          const mesh::TriMesh& fine, const mesh::Field& fine_values,
                          const VertexMapping& mapping, EstimateMode mode,
                          util::ThreadPool* pool = nullptr);

/// The coarse vertices whose values Estimate reads to predict the fine
/// vertices `fine` marks (one entry per fine vertex, nonzero = marked): the
/// corners of each one's mapped triangle and, under the gradient Estimate,
/// every vertex of a triangle that uses such a corner (the inputs of the
/// corner's gradient). One entry per coarse vertex, 1 = read.
std::vector<std::uint8_t> estimate_support(const mesh::TriMesh& coarse,
                                           const VertexMapping& mapping,
                                           EstimateMode mode,
                                           const std::vector<std::uint8_t>& fine);

/// Algorithm 3: restore the fine level from the coarse level plus a delta.
/// Same inputs as compute_delta, with the same determinism guarantee.
mesh::Field restore_level(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          const mesh::TriMesh& fine, const mesh::Field& delta,
                          const VertexMapping& mapping, EstimateMode mode,
                          util::ThreadPool* pool = nullptr);

}  // namespace canopus::core
