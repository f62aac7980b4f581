#pragma once
// Core Canopus types: refactoring configuration and the persisted
// fine-vertex -> coarse-triangle mapping.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mesh/decimate.hpp"
#include "mesh/geometry.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::core {

/// How Estimate(.) (Eq. 2) combines the three coarse-triangle corner values
/// to predict a fine vertex. The paper uses uniform alpha=beta=gamma=1/3 and
/// leaves the optimal form open; the alternatives feed the ablation bench.
enum class EstimateMode : std::uint8_t {
  kUniformThirds = 0,  // paper default
  kBarycentric = 1,    // true barycentric weights of the fine vertex
  kNearestVertex = 2,  // copy the closest corner
};

std::string to_string(EstimateMode mode);
EstimateMode estimate_mode_from_string(const std::string& s);

/// Knobs for the task-based refactor/restore engine, shared by the writer
/// (refactor_and_write) and the reader (ProgressiveReader) and configurable
/// from XML (<threads>N</threads>, <pipeline overlap=".." read-ahead=".."/>).
/// Worker count only changes wall-clock: products and restored fields are
/// bitwise-identical for any `threads` value (commits and reductions are
/// ordered deterministically).
struct ParallelConfig {
  /// Worker threads for parallel sections; 0 = the process-global pool
  /// (hardware concurrency), 1 = a dedicated single worker.
  std::size_t threads = 0;
  /// Writer: overlap level l's mapping+delta computation with level l+1's
  /// compression commit (a single committer serializes placement, so
  /// placement order and phase accounting stay deterministic).
  bool pipeline = true;
  /// Reader: while refine_to() applies one level, fetch the next level it
  /// will restore from its (slow) tier. Only levels the call commits to are
  /// read ahead, so every prefetch is consumed.
  bool read_ahead = true;
};

/// Everything that controls one refactoring run.
struct RefactorConfig {
  /// Total number of accuracy levels N (>= 1); L^{N-1} is the base.
  std::size_t levels = 3;
  /// Per-level decimation step; cumulative ratio at level l is step^l.
  double step = 2.0;
  /// Edge-collapse options (priority metric, seed).
  mesh::DecimateOptions decimate;
  /// Floating-point codec applied to the base and every delta.
  std::string codec = "zfp";
  /// Absolute error bound handed to the codec for each product.
  double error_bound = 0.0;
  EstimateMode estimate = EstimateMode::kUniformThirds;
  /// Pin products to tiers by level (paper's Fig. 1 layout: base on the
  /// fastest tier, finer deltas further down). When false, every product
  /// takes the generic fastest-fit path.
  bool tiered_placement = true;
  /// Split every delta into this many independently decodable chunks with
  /// per-chunk bounding boxes, enabling focused region-of-interest retrieval
  /// ("reading smaller subsets of high accuracy data", Section III-E).
  /// Chunks are also the unit of parallel encoding/decoding.
  std::uint32_t delta_chunks = 1;
  /// Task-engine knobs for the write pipeline.
  ParallelConfig parallel;

  /// Convenience: sets error_bound so that the *accumulated* restoration
  /// error at full accuracy stays within `total` (codec bounds add once per
  /// product along the base + deltas chain, i.e. `levels` times).
  RefactorConfig& set_total_error_budget(double total) {
    error_bound = total / static_cast<double>(levels);
    return *this;
  }
};

/// Per-chunk vertex ranges and spatial extents of one level's delta,
/// persisted alongside chunked deltas to drive ROI reads.
struct ChunkIndex {
  struct Range {
    std::uint64_t start = 0;  // first fine-vertex index of the chunk
    std::uint64_t count = 0;
    mesh::Aabb bbox;          // extent of those vertices
  };
  std::vector<Range> chunks;

  /// Indices of chunks whose bbox overlaps `roi`.
  std::vector<std::uint32_t> intersecting(const mesh::Aabb& roi) const;

  void serialize(util::ByteWriter& out) const;
  static ChunkIndex deserialize(util::ByteReader& in);
};

/// For every vertex of the fine level: the containing coarse triangle and its
/// barycentric weights there. Stored in BP metadata during refactoring and
/// reused to accelerate restoration (Section III-E2).
struct VertexMapping {
  std::vector<std::uint32_t> triangle;            // coarse triangle per vertex
  std::vector<std::array<double, 3>> weights;     // barycentric weights

  std::size_t size() const { return triangle.size(); }

  /// Rounds weights to float32 precision (w2 re-derived from the affine
  /// constraint). build_mapping applies this before deltas are computed, so
  /// the weights stored on disk are bit-identical to the ones the deltas
  /// assumed — serialization stays exact at half the bytes.
  void quantize_weights();

  void serialize(util::ByteWriter& out) const;
  static VertexMapping deserialize(util::ByteReader& in);
};

}  // namespace canopus::core
