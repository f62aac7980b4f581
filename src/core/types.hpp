#pragma once
// Core Canopus types: refactoring configuration, the fine-vertex ->
// coarse-triangle mapping and the chunk index of a chunked delta.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mesh/decimate.hpp"
#include "mesh/geometry.hpp"

namespace canopus::adios {
struct ReadTiming;
}  // namespace canopus::adios
namespace canopus::storage {
struct IoResult;
}  // namespace canopus::storage

namespace canopus::core {

/// How Estimate(.) (Eq. 2) predicts a fine vertex from the coarse triangle
/// containing it. The paper uses uniform alpha=beta=gamma=1/3 and leaves the
/// optimal form open. Barycentric weights interpolate the coarse level
/// linearly; the gradient Estimate, the default, also extends each corner's
/// value by 3/4 of its first-order Taylor term, which sees the curvature
/// linear interpolation leaves in the deltas. Weights and gradients are
/// derived from the coarse level, never stored.
enum class EstimateMode : std::uint8_t {
  kUniformThirds = 0,  // the paper's 1/3
  kBarycentric = 1,    // mesh::location_weights of the fine vertex
  kGradient = 2,       // barycentric over gradient-extended corners (default)
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

/// Cumulative phase timings of all retrieval steps so far, plus the
/// robustness counters of the degraded-path machinery (retries, detected
/// corruption, replica fallbacks, refinement steps that gave up).
struct RetrievalTimings {
  double io_seconds = 0.0;          // simulated tier I/O
  double decompress_seconds = 0.0;  // wall
  double restore_seconds = 0.0;     // wall
  std::size_t bytes_read = 0;
  std::size_t retries = 0;               // failed tier reads that were retried
  std::size_t corruptions_detected = 0;  // CRC failures among those
  std::size_t replica_reads = 0;         // reads served by a replica copy
  std::size_t degraded_steps = 0;        // refine() calls that gave up
  /// Values decoded from stored blocks; a decoded array served by the block
  /// cache decodes none. serve::CostModel::charged prices them.
  std::size_t values_decoded = 0;

  double total() const { return io_seconds + decompress_seconds + restore_seconds; }
  RetrievalTimings& operator+=(const RetrievalTimings& o);
  /// Charges one block read: simulated I/O, decode time, bytes and the
  /// hierarchy's robustness counters.
  void charge(const adios::ReadTiming& read);
  /// Charges one tier read; a read that gave up charges its
  /// storage::StorageError::charge.
  void charge(const storage::IoResult& io);
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
  /// Absolute error bound handed to the codec for each product. The writer
  /// takes each delta against the level the reader will restore, so every
  /// level of a full refine is within it of the input's level.
  double error_bound = 0.0;
  EstimateMode estimate = EstimateMode::kGradient;
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
};

/// The stored positions chunk c of an n-value delta cut into `chunks`
/// holds: [bounds[c], bounds[c + 1]), bounds[c] = n * c / chunks. The
/// writers cut by it and readers derive ChunkIndex from it, so it alone
/// decides a chunked level's layout. Throws canopus::Error unless
/// 1 <= chunks <= max(1, n).
std::vector<std::size_t> chunk_bounds(std::size_t n, std::uint32_t chunks);

/// Per-chunk vertex ranges and spatial extents of one level's chunked delta,
/// which drive ROI reads. Nothing stores it: a reader derives it from the
/// level's geometry.
struct ChunkIndex {
  struct Range {
    std::uint64_t start = 0;  // first storage position of the chunk
    std::uint64_t count = 0;
    mesh::Aabb bbox;          // extent of those vertices
  };
  std::vector<Range> chunks;

  /// The index of a level whose vertices sit at `positions`, stored in
  /// Morton order `order` (stored[pos] belongs to vertex order[pos]) and cut
  /// into `chunks` by chunk_bounds.
  static ChunkIndex derive(std::span<const mesh::Vec2> positions,
                           const std::vector<mesh::VertexId>& order,
                           std::uint32_t chunks);

  /// Indices of chunks whose bbox overlaps `roi`.
  std::vector<std::uint32_t> intersecting(const mesh::Aabb& roi) const;
};

/// For every vertex of the fine level, the containing coarse triangle. The
/// paper persists it to spare restoration the point location (Section
/// III-E2); here the writer and every reader build it with build_mapping
/// from geometry they hold bitwise, so nothing stores it. Estimate's
/// weights are mesh::location_weights of the fine vertex in its triangle.
struct VertexMapping {
  std::vector<std::uint32_t> triangle;  // coarse triangle per vertex

  std::size_t size() const { return triangle.size(); }
};

}  // namespace canopus::core
