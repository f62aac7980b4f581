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
// Output is a deterministic function of (mesh, values, options). Each edge
// has an orientation (survivor, dying): (a, b) with a < b at the start, and
// (i, n) for every edge of i once a collapse of (i, j) re-keys them. Edges
// are tried in ascending (priority, survivor, dying) order, a total order,
// so priority ties never depend on the layout of a heap or a list. A
// rejected edge is tried again only after a collapse re-keys it.

#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/tri_mesh.hpp"

namespace canopus::mesh {

/// Edge-ordering strategies (the paper uses shortest-first and leaves the
/// choice application-dependent; the alternatives feed the ablation bench).
enum class EdgePriority {
  kShortestFirst,     // paper default: Euclidean edge length
  kRandom,            // uniform random order: the top 53 bits of
                      // h = m(m(m(m(seed) ^ survivor) ^ dying) ^ collapses),
                      // times 2^-53, where m is SplitMix64's output function
                      // and `collapses` counts those committed so far
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

/// The committed collapses of one pass, in order, as (surviving slot, dying
/// slot) pairs in the pass's *input* vertex numbering.
using CollapseLog = std::vector<std::pair<VertexId, VertexId>>;

struct DecimateResult {
  TriMesh mesh;    // G^{l+1}
  Field values;    // L^{l+1}
  /// Ratio actually achieved; can fall short of the request if every
  /// remaining collapse would break the mesh.
  double achieved_ratio = 1.0;
  std::size_t collapses = 0;
  std::size_t rejected = 0;

  /// Replay support: the committed collapses, plus the input slot each
  /// output vertex was compacted from. The output mesh is a pure function of
  /// the input mesh and the log (replay_collapses). With kShortestFirst
  /// priority the log depends only on geometry, so a different timestep's
  /// field over the same mesh decimates by replaying it — no priority queue,
  /// no connectivity work (see replay_decimation).
  CollapseLog collapse_log;
  std::vector<VertexId> survivor_slots;
};

/// Decimates one level. `values` must have one entry per vertex.
DecimateResult decimate(const TriMesh& mesh, const Field& values,
                        const DecimateOptions& options);

/// Applies a recorded collapse sequence to another field sampled on the same
/// input mesh: each (i, j) averages slot j into slot i (NewData), and the
/// gather of `survivor_slots` produces the decimated field.
/// O(collapses + output).
Field replay_decimation(const CollapseLog& log,
                        const std::vector<VertexId>& survivor_slots,
                        const Field& values);

/// Rebuilds the mesh a decimation pass produced from its input mesh and its
/// collapse log, bitwise equal to decimate(input, ...).mesh:
///   - each (i, j), in log order, moves slot i to the decimator's midpoint
///     of i and j;
///   - one reverse pass over the log maps every slot to its final survivor;
///   - a triangle survives when its three mapped corners are distinct, and
///     survivors keep input order;
///   - the output vertices are the slots a surviving triangle references, in
///     slot order.
/// Every output vector is allocated at its exact size. Throws canopus::Error
/// for a log that cannot come from `input`: an id past its vertices, i == j,
/// or a slot used after it died.
TriMesh replay_collapses(const TriMesh& input, const CollapseLog& log);

}  // namespace canopus::mesh
