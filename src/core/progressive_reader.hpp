#pragma once
// The read side of Canopus: progressive, elastic data retrieval.
//
// A ProgressiveReader opens a refactored variable, retrieves the base dataset
// from the fast tier, and then refines level by level on demand — retrieve
// delta, decompress, restore (Algorithm 3) — letting analytics trade accuracy
// for speed on the fly (Fig. 1, right side). Every step reports the paper's
// phase breakdown (I/O, decompression, restoration).

#include <functional>
#include <future>
#include <optional>
#include <string>

#include "adios/bp.hpp"
#include "core/geometry_cache.hpp"
#include "core/types.hpp"
#include "io/io_config.hpp"
#include "mesh/tri_mesh.hpp"
#include "storage/hierarchy.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace canopus::core {

/// Outcome of one refinement step.
enum class RefineStatus : std::uint8_t {
  kOk = 0,       // level advanced, no faults along the way
  kRetried = 1,  // level advanced after retries and/or a replica fallback
  kDegraded = 2, // delta unavailable: the reader kept the last good level
};

std::string to_string(RefineStatus status);

/// Concurrency knobs of a ProgressiveReader (see ParallelConfig): worker
/// count for chunk decoding / restoration fan-out and whether refine_to() may
/// read the following delta level ahead of time.
struct ReaderOptions {
  ParallelConfig parallel;
  /// Worker pool shared across concurrent read sessions (the Pipeline's
  /// session pool). When set it overrides parallel.threads — the reader
  /// spawns no pool of its own — and must outlive the reader.
  util::ThreadPool* shared_pool = nullptr;
  /// How a level's delta-chunk reads are charged. They are always issued one
  /// at a time, in chunk order; with the default depth of 1 the step is
  /// charged their serial sum, and depth > 1 charges their overlap_makespan
  /// on `depth` lanes. Reads, restored fields and fault streams are the same
  /// at every depth; only io_seconds changes.
  io::IoConfig io;
};

class ProgressiveReader {
 public:
  /// Opens the container and retrieves the base dataset L^{N-1}.
  ///
  /// Deprecated as a public entry point: prefer canopus::Pipeline::read()
  /// for one-shot retrieval or Pipeline::open() for step-wise refinement
  /// (core/pipeline.hpp); both wrap this constructor behind a
  /// Status-returning API. Kept callable for source compatibility.
  ///
  /// `geometry`, when given, supplies the per-level meshes, restoration
  /// mappings, and spatial orders from a campaign-lifetime GeometryCache so
  /// that no geometry is read, rebuilt or derived on the per-timestep path
  /// (meshes are static across a simulation run); it must outlive the
  /// reader. Without it, the reader loads its own GeometryCache at open, on
  /// its own pool, and charges that load to cumulative() — its reads (failed
  /// ones too) and its wall time — so refinement steps read deltas only.
  ///
  /// Restoration is concurrent per `options.parallel`: fetched delta chunks
  /// decompress in parallel and, with read-ahead on, refine_to() starts
  /// pulling the following delta off the (slow) tiers while the current one
  /// is applied. Restored fields are bitwise-identical for any worker count,
  /// and every simulated I/O second of a prefetched block is charged to the
  /// step that consumes it, so RetrievalTimings still matches the simulated
  /// clock.
  ProgressiveReader(storage::StorageHierarchy& hierarchy, const std::string& path,
                    std::string var, const GeometryCache* geometry = nullptr,
                    ReaderOptions options = {});

  ProgressiveReader(const ProgressiveReader&) = delete;
  ProgressiveReader& operator=(const ProgressiveReader&) = delete;

  std::size_t level_count() const { return levels_; }
  /// Current accuracy level (N-1 = base ... 0 = full accuracy).
  std::uint32_t current_level() const { return current_level_; }
  bool at_full_accuracy() const { return current_level_ == 0; }

  /// Data and geometry at the current accuracy. At level 0 the mesh is the
  /// geometry cache's mesh(0), which decodes its triangles on first request.
  const mesh::Field& values() const { return values_; }
  const mesh::TriMesh& current_mesh() const {
    return geometry_->mesh(current_level_);
  }

  /// Decimation ratio of the current level relative to L^0.
  double decimation_ratio() const;

  /// One refinement step: fetch delta^{(level-1)-level}, decompress, restore.
  /// Returns the step's timings. Throws when already at full accuracy.
  ///
  /// Failure-prone tiers never surface as exceptions here: when a delta
  /// stays unreadable after the hierarchy's retries and replica fallback,
  /// the step reports RefineStatus::kDegraded via last_status(), the reader
  /// keeps the last good accuracy level, and analytics continue on it
  /// (degraded_steps counts the give-ups). The step is still charged what the
  /// failed read cost.
  RetrievalTimings refine();

  /// Outcome of the most recent refine()/refine_region() call.
  RefineStatus last_status() const { return last_status_; }

  /// Focused refinement (Section III-E / IV-D): fetch only the delta chunks
  /// whose extent intersects `roi` and restore the next level with full
  /// accuracy inside the region and estimate-only values outside. Requires
  /// the variable to have been written with delta_chunks > 1; with a single
  /// chunk this is a full refine(). Each chunk's range and extent come from
  /// the level's geometry (chunk_index); a delta chunk record that does not
  /// hold its range throws canopus::Error naming the block before anything
  /// is read or restored. After a regional refinement that
  /// skipped chunks, partially_refined() reports true until the next full
  /// refine() backfills the skipped chunks (it re-reads them and applies
  /// their deltas before descending, restoring full accuracy bitwise). Once a
  /// second regional step stacks on a partial level, the missing deltas have
  /// propagated through the finer level's estimates and the flag becomes
  /// sticky — exact re-establishment is no longer possible.
  RetrievalTimings refine_region(const mesh::Aabb& roi);

  /// True when some vertices of the current level carry estimate-only values
  /// because a region-of-interest refinement skipped their delta chunks.
  bool partially_refined() const { return partially_refined_; }

  /// Refines until `level` (inclusive) or a step degrades (check
  /// last_status()); returns accumulated step timings. The only entry point
  /// that reads ahead: every level it prefetches is one this call restores,
  /// and the read-ahead is joined before it returns (or throws).
  RetrievalTimings refine_to(std::uint32_t level);

  /// Automated termination (Section III-E): refines until the RMS of the
  /// delta just applied — the change between consecutive levels,
  /// last_delta_rms() — drops below `rmse_threshold`, full accuracy is
  /// reached, or a step degrades. Throws Error on a non-finite threshold; a
  /// threshold <= 0 can never exceed an RMS (which is >= 0), so it refines to
  /// full accuracy — the documented way to say "no early stop".
  RetrievalTimings refine_until(double rmse_threshold);

  /// Budgeted refinement for the serve-layer scheduler: before each step,
  /// `admit(next_level)` decides whether to take it (the scheduler prices
  /// the step with serve::CostModel). Stops when admit returns false, full
  /// accuracy is reached, or a step degrades; returns accumulated step
  /// timings.
  RetrievalTimings refine_while(
      const std::function<bool(std::uint32_t)>& admit);

  /// RMS of the delta applied by the most recent successful refine() /
  /// refine_region() — the achieved-accuracy proxy the scheduler reports
  /// (for a regional step it is a lower bound: skipped chunks count as
  /// zero). Empty before the first refinement.
  std::optional<double> last_delta_rms() const { return last_delta_rms_; }

  /// Container metadata of the open variable (block records with per-chunk
  /// sizes and object keys) — the cost model's input.
  const adios::VarInfo& var_info() const { return info_; }

  /// Timings accumulated since open (includes the base retrieval).
  const RetrievalTimings& cumulative() const { return cumulative_; }

 private:
  /// One delta chunk's index record and stored payload, fetched without
  /// decoding so decode_level can decode a level's chunks in parallel.
  struct RawChunk {
    adios::BlockRecord record;
    util::Bytes payload;
  };
  using RawChunks = std::vector<RawChunk>;

  /// A read-ahead of one whole delta level, fetched on a pool worker. On a
  /// failed fetch `chunks` is empty, `io` holds the read prefix's timings and
  /// `error` the failure, so the consuming step degrades exactly like a
  /// synchronous fetch.
  struct Prefetch {
    std::uint32_t level = 0;
    RawChunks chunks;
    RetrievalTimings io;
    std::exception_ptr error;
  };

  /// Chunks a regional refinement skipped, remembered so the next full
  /// refine() can re-establish full accuracy exactly: restoration is
  /// fine = estimate + delta and skipped chunks were applied as delta = 0,
  /// so re-reading them and adding their (unpermuted) values is an exact
  /// additive fix-up. Only recorded while the reader was clean — once
  /// partial levels stack, the missing contribution has propagated through
  /// later estimates and partially_refined_ stays sticky.
  struct SkippedChunks {
    std::uint32_t level = 0;              // the partially refined level
    ChunkIndex index;                     // chunk_index(level)
    std::vector<std::uint32_t> chunks;    // chunk ids not fetched
  };

  /// Re-reads the pending skipped chunks of the current level and applies
  /// their deltas additively, clearing partially_refined_. Nothing is applied
  /// until every chunk has landed, so a tier fault (which propagates to the
  /// caller's degrade path) leaves the whole set pending, exactly resumable.
  void backfill_skipped(RetrievalTimings& step);

  /// One full refinement step; with `read_ahead_to` set, reads level
  /// next - 1 ahead while restoring when next - 1 >= *read_ahead_to.
  RetrievalTimings refine_step(std::optional<std::uint32_t> read_ahead_to);

  /// The chunks of level `next` a regional step toward `roi` fetches, in
  /// ascending order: those whose extent meets the ROI, and those holding a
  /// value that the Estimates of later regional steps toward the same ROI
  /// read on the way to restoring its vertices, level by level down to
  /// level 0 (estimate_support). So a stack of regional steps restores every
  /// vertex inside the ROI bitwise as full refines would.
  std::vector<std::uint32_t> region_chunks(std::uint32_t next,
                                           const ChunkIndex& index,
                                           const mesh::Aabb& roi) const;

  /// Records a failed step: counts it, sets kDegraded, keeps reader state.
  RetrievalTimings degrade(RetrievalTimings step);

  /// Records a successful step to `next` whose applied delta had RMS
  /// `delta_rms`.
  RetrievalTimings advance(std::uint32_t next, double delta_rms,
                           RetrievalTimings step);

  util::ThreadPool& pool() const;
  std::uint32_t delta_chunk_count(std::uint32_t level) const;
  /// ChunkIndex::derive of `level` at its records' chunk count, once every
  /// delta chunk record of the level is checked to hold its derived range
  /// (canopus::Error naming the block otherwise).
  ChunkIndex chunk_index(std::uint32_t level) const;
  /// Reads the compressed delta chunks `chunks` of `level` one at a time, in
  /// that order, and folds each read into `step`: io_seconds as the serial
  /// per-op sum at depth <= 1, as the overlapped makespan at depth > 1.
  /// Stops at the first failed read and rethrows it after folding the read
  /// prefix and the failed read's charge. Safe to run off-thread: it only
  /// reads through the (thread-safe) hierarchy.
  RawChunks fetch_level(std::uint32_t level,
                        const std::vector<std::uint32_t>& chunks,
                        RetrievalTimings& step) const;
  /// Decodes fetched chunks in parallel on the pool, one array per chunk in
  /// input order. With a block cache each decoded array is loaded once and
  /// shared under its "#decoded" alias, so sibling sessions skip the decode.
  std::vector<cache::BlockCache::ArrayPtr> decode_level(
      std::uint32_t level, const RawChunks& chunks, RetrievalTimings& step);
  /// Restores level `next` from its delta in storage order (Morton order
  /// when `chunked`).
  void restore_next(std::uint32_t next, mesh::Field delta, bool chunked,
                    RetrievalTimings& step);
  /// Kicks off the read-ahead of `level` (no-op when disabled or when every
  /// chunk of the level is cache-resident).
  void start_prefetch(std::uint32_t level);
  /// Consumes the read-ahead of `level`: folds its timings into `step` and
  /// rethrows its failure.
  RawChunks take_prefetch(std::uint32_t level, RetrievalTimings& step);

  storage::StorageHierarchy& hierarchy_;
  adios::BpReader reader_;
  std::string var_;
  adios::VarInfo info_;  // block records of var_, loaded at open
  std::optional<GeometryCache> owned_geometry_;  // loaded at open without one
  const GeometryCache* geometry_ = nullptr;      // never null after open
  std::size_t levels_ = 0;
  EstimateMode estimate_ = EstimateMode::kUniformThirds;

  std::uint32_t current_level_ = 0;
  RefineStatus last_status_ = RefineStatus::kOk;
  bool partially_refined_ = false;
  std::optional<SkippedChunks> skipped_;
  std::optional<double> last_delta_rms_;
  mesh::Field values_;
  RetrievalTimings cumulative_;

  // Worker pool: the session-shared one when given, a dedicated one when
  // options pin a thread count, the process-global pool otherwise.
  util::ThreadPool* shared_pool_ = nullptr;  // not owned; may be null
  mutable std::optional<util::ThreadPool> local_pool_;
  bool read_ahead_ = false;
  io::IoConfig io_config_;
  std::future<Prefetch> prefetch_;  // valid only inside refine_to()
};

}  // namespace canopus::core
