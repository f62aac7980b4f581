#pragma once
// The write side of Canopus: decimate -> delta -> compress -> place.
//
// refactor_and_write() runs the full Section III pipeline for one variable on
// one unstructured triangular mesh and persists every product (base, deltas,
// the L0 mesh and per-pass collapse logs) into a BP container across the
// storage hierarchy. Restoration mappings and chunk indexes are not stored:
// readers derive them from the geometry (GeometryCache, ChunkIndex::derive).
// The returned report carries the paper's Fig. 6b phase breakdown plus
// per-product sizes for the Fig. 5 comparison.

#include <optional>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "compress/codec.hpp"
#include "core/types.hpp"
#include "mesh/cascade.hpp"
#include "storage/hierarchy.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace canopus::core {

/// Size accounting for one stored product.
struct ProductSize {
  std::string name;           // "base", "delta0", "delta1", ...
  std::uint32_t level = 0;
  std::size_t raw_bytes = 0;
  std::size_t stored_bytes = 0;
  /// Slowest (highest-index) tier holding any chunk of the product — the one
  /// that bounds a retrieval of the whole product.
  std::uint32_t tier = 0;
  /// Tier of every stored chunk, in chunk order (single-chunk products carry
  /// one entry). Hint fallback or fastest-fit bypass can scatter a chunked
  /// delta across tiers, so one scalar cannot describe the placement.
  std::vector<std::uint32_t> chunk_tiers;
};

struct RefactorReport {
  /// Phase seconds: "decimation", "delta+compress", "io".
  util::PhaseTimer phases;
  std::vector<ProductSize> products;
  /// Vertex counts per level, finest first.
  std::vector<std::size_t> level_vertices;
  /// Stored bytes of the L0 mesh and collapse-log blocks. The whole
  /// container is total_stored_bytes() + geometry_bytes.
  std::size_t geometry_bytes = 0;

  /// Base and deltas only: the products Fig. 5 compares.
  std::size_t total_raw_bytes() const;
  std::size_t total_stored_bytes() const;
};

/// One level's delta as the container stores it.
struct CodedDelta {
  /// The delta in stored order (Morton order when chunked).
  mesh::Field values;
  /// chunk_bounds of the level: chunk c codes stored positions
  /// [bounds[c], bounds[c + 1]).
  std::vector<std::size_t> bounds;
  /// One codec stream per chunk, in chunk order.
  std::vector<util::Bytes> chunks;
};

/// The writer's closed loop: SZ's rule of predicting from reconstructed
/// data. code_base codes the base and decodes it; then each code_delta
/// call, coarse to fine, takes the delta against the level the reader will
/// hold, codes it, decodes it and restores the fine level with
/// restore_level. Decode and restore are the reader's own functions, so
/// level() is bitwise what a full refine of the container yields, and every
/// level is within the codec's bound of the level it was coded from: codec
/// error never compounds down the chain. Every writer codes through it.
class ClosedLoop {
 public:
  /// Codes with `codec` at `error_bound` under `estimate`. Per-vertex and
  /// per-chunk work fans out on `pool` (nullptr = the global pool); the
  /// streams and levels are bitwise the same for any worker count.
  ClosedLoop(const std::string& codec, double error_bound,
             EstimateMode estimate, util::ThreadPool* pool = nullptr);

  /// Codes the base level; the chain starts from its decode.
  util::Bytes code_base(const mesh::Field& values);

  /// Codes the delta of `fine_values` on `fine`, whose vertices `mapping`
  /// places in `coarse`, against the chain's level (which lies on
  /// `coarse`), then moves the chain to the fine level as the reader
  /// restores it. With `order`, the delta is stored permuted into it and
  /// cut into `chunks` ranges (chunk_bounds), each coded on its own.
  CodedDelta code_delta(const mesh::TriMesh& coarse, const mesh::TriMesh& fine,
                        const mesh::Field& fine_values,
                        const VertexMapping& mapping, std::uint32_t chunks = 1,
                        const std::vector<mesh::VertexId>* order = nullptr);

  /// The reader's copy of the last level coded.
  const mesh::Field& level() const { return level_; }

 private:
  util::ThreadPool& pool() const;

  compress::CodecPtr codec_;
  double error_bound_;
  EstimateMode estimate_;
  util::ThreadPool* pool_;
  mesh::Field level_;
};

/// Refactors (mesh, values) into `config.levels` accuracy levels and writes
/// them as variable `var` into the container at `path`. The input (level 0)
/// itself is not stored — only the base and the deltas, per Section III-C2.
///
/// Deprecated as a public entry point: prefer canopus::Pipeline::write()
/// (core/pipeline.hpp), which wraps this engine behind a Status-returning
/// request/response API. Kept callable for source compatibility.
///
/// Base and deltas are coded through ClosedLoop, so every level of a full
/// refine is within config.error_bound of the input's level.
///
/// The pipeline is concurrent per config.parallel: delta chunks code in
/// parallel, the Morton permutation fans out on the pool, and level l's
/// mapping, delta and coding overlap level l+1's commit. A single committer
/// serializes every write into the container in the same order as the
/// serial pipeline, so placement, the Fig. 6b phase accounting, and all
/// stored bytes are bitwise-identical for any thread count.
RefactorReport refactor_and_write(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  const mesh::TriMesh& mesh,
                                  const mesh::Field& values,
                                  const RefactorConfig& config);

/// Variant taking a prebuilt level hierarchy. Decimation is a mesh-lifetime
/// cost in a campaign (thousands of timesteps share one cascade); this entry
/// point lets callers amortize it and charge only the per-variable
/// delta+compress+place pipeline. `cascade` must have been built with the
/// same levels/step the config describes, and carry each pass's collapse log
/// (build_cascade fills them). No "decimation" phase is recorded.
RefactorReport refactor_and_write(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  const mesh::Cascade& cascade,
                                  const RefactorConfig& config);

/// Paper Fig. 1 layout hint: base on the fastest tier, deltas progressively
/// lower (finest delta on the slowest). Level `level`'s products go
/// `levels-1-level` tiers down, clamped to the stack depth, when
/// `config.tiered_placement` is set; nullopt otherwise. Whether a block fits
/// there is StorageHierarchy::place's check, made with the block's stored
/// bytes: one that does not fit goes to the fastest tier with room.
std::optional<std::uint32_t> tier_hint_for(
    const RefactorConfig& config, const storage::StorageHierarchy& hierarchy,
    std::uint32_t level);

/// Baseline for Fig. 5: compress every level directly (no deltas) and report
/// the same size accounting. Nothing is written to storage.
RefactorReport direct_multilevel_sizes(const mesh::TriMesh& mesh,
                                       const mesh::Field& values,
                                       const RefactorConfig& config);

}  // namespace canopus::core
