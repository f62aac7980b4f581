#pragma once
// Edge-collapse mesh decimation — Algorithm 1 of the paper.
//
// Edges sit in a priority queue keyed (by default) on length; the shortest
// edge is collapsed to its midpoint, the field value to the mean of its two
// endpoint values (NewVertex/NewData of the paper), and the queue is updated
// with the freshly created edges. Collapsing stops when the requested
// decimation ratio |V^l| / |V^{l+1}| is reached.
//
// Beyond the paper's pseudocode we guard each collapse with the standard link
// condition plus a triangle-orientation check, so decimated meshes remain
// valid manifold triangulations at any ratio; rejected edges are simply
// skipped. Decimation is local (no cross-partition communication), which is
// what makes Canopus' refactoring embarrassingly parallel.
//
// Output is a deterministic function of (mesh, values, options), ties in
// priority included: equal priorities pop in the order the binary heap's
// layout gives them, so the order of heap pushes is part of the contract.

#include <cstdint>

#include "mesh/tri_mesh.hpp"

namespace canopus::mesh {

/// Edge-ordering strategies (the paper uses shortest-first and leaves the
/// choice application-dependent; the alternatives feed the ablation bench).
enum class EdgePriority {
  kShortestFirst,     // paper default: Euclidean edge length
  kRandom,            // uniform random order
  kGradientWeighted,  // length scaled up where the field changes quickly,
                      // so smooth regions coarsen first
};

struct DecimateOptions {
  /// Target |V^l| / |V^{l+1}|; 2.0 halves the vertex count.
  double ratio = 2.0;
  EdgePriority priority = EdgePriority::kShortestFirst;
  /// Seed for kRandom priority.
  std::uint64_t seed = 7;
  /// Strength of the data term for kGradientWeighted.
  double gradient_weight = 4.0;
};

struct DecimateResult {
  TriMesh mesh;    // G^{l+1}
  Field values;    // L^{l+1}
  /// Ratio actually achieved; can fall short of the request if every
  /// remaining collapse would break the mesh.
  double achieved_ratio = 1.0;
  std::size_t collapses = 0;
  std::size_t rejected = 0;

  /// Replay support: the committed collapses in order, as (surviving slot,
  /// dying slot) pairs in the *input* level's vertex indexing, plus the
  /// input slot each output vertex was compacted from. With kShortestFirst
  /// priority the collapse sequence depends only on geometry, so a different
  /// timestep's field over the same mesh decimates by replaying this log —
  /// no priority queue, no connectivity work (see replay_decimation).
  std::vector<std::pair<VertexId, VertexId>> collapse_log;
  std::vector<VertexId> survivor_slots;
};

/// Decimates one level. `values` must have one entry per vertex.
DecimateResult decimate(const TriMesh& mesh, const Field& values,
                        const DecimateOptions& options);

/// Applies a recorded collapse sequence to another field sampled on the same
/// input mesh: each (i, j) averages slot j into slot i (NewData), and the
/// survivor gather produces the decimated field. O(collapses + output).
Field replay_decimation(const DecimateResult& recipe, const Field& values);

}  // namespace canopus::mesh
