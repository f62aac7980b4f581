#pragma once
// The write side of Canopus: decimate -> delta -> compress -> place.
//
// refactor_and_write() runs the full Section III pipeline for one variable on
// one unstructured triangular mesh and persists every product (base, deltas,
// the L0 mesh and per-pass collapse logs, restoration mappings) into a BP
// container across the storage hierarchy. The returned report carries the paper's Fig. 6b phase
// breakdown plus per-product sizes for the Fig. 5 comparison.

#include <optional>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/types.hpp"
#include "mesh/cascade.hpp"
#include "storage/hierarchy.hpp"
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
  /// Stored bytes of the L0 mesh, collapse-log, mapping and chunk-index
  /// blocks. The whole container is total_stored_bytes() + geometry_bytes.
  std::size_t geometry_bytes = 0;

  /// Base and deltas only: the products Fig. 5 compares.
  std::size_t total_raw_bytes() const;
  std::size_t total_stored_bytes() const;
};

/// Refactors (mesh, values) into `config.levels` accuracy levels and writes
/// them as variable `var` into the container at `path`. The input (level 0)
/// itself is not stored — only the base and the deltas, per Section III-C2.
///
/// Deprecated as a public entry point: prefer canopus::Pipeline::write()
/// (core/pipeline.hpp), which wraps this engine behind a Status-returning
/// request/response API. Kept callable for source compatibility.
///
/// The pipeline is concurrent per config.parallel: delta chunks encode in
/// parallel, the Morton permutation and per-chunk bounding boxes fan out on
/// the pool, and level l's mapping+delta computation overlaps level l+1's
/// compression commit. A single committer serializes every write into the
/// container in the same order as the serial pipeline, so placement, the
/// Fig. 6b phase accounting, and all stored bytes are bitwise-identical for
/// any thread count.
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
