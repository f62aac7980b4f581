#pragma once
// One-time geometry loading for campaign-style analytics, and the container
// layout of that geometry.
//
// Simulation meshes are static across a run: XGC1 writes thousands of dpot
// timesteps over the same mesh. The per-level meshes and restoration
// mappings are therefore campaign-lifetime artifacts — read and rebuilt
// once, then shared by every ProgressiveReader that analyzes a timestep.
// Passing a GeometryCache to ProgressiveReader removes geometry I/O from the
// per-read critical path, which is the regime the paper's Figs. 9-11 measure;
// a reader opened without one loads its own at open.
//
// A container stores the L0 mesh once (a level-0 kMesh block) and, for each
// decimation pass, the collapse log that produced level l (a level-l
// kCollapseLog block: a varint count, then varint (survivor, dying) pairs in
// level l-1's slot numbering). load() rebuilds levels 1..N-1 by replaying the
// logs (mesh::replay_collapses), bitwise equal to the writer's cascade.
//
// The kMesh block numbers the vertices by rank: the order of first use in
// triangle order, unreferenced vertices last in id order. Its sections:
//   varint n, varint T            vertex and triangle counts
//   permutation                   the id of each rank, ceil(log2 n) bits
//                                 each, LSB-first in 64-bit words
//   varint len, Huffman stream    3T corner symbols, in triangle and corner
//                                 order: 0 a new rank (the next unused);
//                                 1..3 corner k-1 of the previous triangle;
//                                 4..11 slot s-4 of an 8-entry list of the
//                                 most recently used ranks; 12 a rank given
//                                 by its distance from the newest rank
//   varint len, Huffman stream    those distances, as varints
//   varint len, FPC stream        x of every rank
//   varint len, FPC stream        y of every rank
//   uint32                        CRC-32 of everything before it
// Every corner moves its rank to the front of the recent list. The CRC makes
// a flipped bit an error rather than a different mesh: coordinate residuals
// and Huffman payloads have no redundancy of their own. There is one layout
// and one decoder; containers do not outlive the binary that wrote them.

#include <memory>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/types.hpp"
#include "mesh/cascade.hpp"
#include "mesh/tri_mesh.hpp"
#include "storage/hierarchy.hpp"
#include "util/thread_pool.hpp"

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

/// A chunked delta stored in Morton order `order` (stored[pos] belongs to
/// vertex order[pos]), scattered back to vertex order. The targets are a
/// permutation, so the fan-out on `pool` writes disjoint entries and the
/// result is the serial loop's. Throws canopus::Error when the sizes differ.
mesh::Field unpermute(const mesh::Field& stored,
                      const std::vector<mesh::VertexId>& order,
                      util::ThreadPool& pool);

/// The kMesh block of `mesh` (layout above).
util::Bytes encode_mesh_block(const mesh::TriMesh& mesh);

/// The mesh a kMesh block holds, bitwise as encoded: vertex ids, triangle
/// order and corner order. Every count is bounded by its section; a
/// malformed block throws canopus::Error.
mesh::TriMesh decode_mesh_block(util::BytesView block);

/// Writes the geometry of `cascade` as `var`: the L0 mesh and one collapse
/// log per pass (layout above), each block with the tier hint of its level
/// (tier_hint_for). Both writers call it. Returns the blocks' summed
/// simulated I/O seconds and stored bytes. Throws canopus::Error when the
/// cascade lacks a log for some pass.
adios::WriteTiming write_geometry(adios::BpWriter& writer,
                                  storage::StorageHierarchy& hierarchy,
                                  const std::string& var,
                                  const mesh::Cascade& cascade,
                                  const RefactorConfig& config);

/// Reads one opaque block and adds the read to `cost`. A read that gives up
/// after the hierarchy's retries and replica fallback is charged too, with
/// the attempts it made, before its storage::StorageError propagates.
/// `admission` as storage::StorageHierarchy::read.
util::Bytes read_charged(
    const adios::BpReader& reader, const std::string& var,
    adios::BlockKind kind, std::uint32_t level, RetrievalTimings& cost,
    storage::Admission admission = storage::Admission::kAdmit);

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

  /// Reads the L0 mesh, the collapse logs and the mappings of `var`, and
  /// rebuilds levels 1..N-1 by replay. `cost`, when given, is charged every
  /// read (I/O seconds, bytes, retries, corruptions, replica reads; a failed
  /// read too) and the load's wall time as restore_seconds. A malformed
  /// block throws canopus::Error naming it.
  ///
  /// By default a block-cache miss admits nothing: the caller keeps the
  /// decoded result, and nothing reads the raw blocks again. A resident copy
  /// still serves the read. A ProgressiveReader opened without a cache
  /// admits them, so a later cacheless open of the container is served from
  /// the block cache.
  static GeometryCache load(
      const adios::BpReader& reader, const std::string& var,
      RetrievalTimings* cost = nullptr,
      storage::Admission admission = storage::Admission::kSkip);
  /// Opens the container at `path` and loads `var`'s geometry from it.
  static GeometryCache load(storage::StorageHierarchy& hierarchy,
                            const std::string& path, const std::string& var,
                            RetrievalTimings* cost = nullptr);
};

}  // namespace canopus::core
