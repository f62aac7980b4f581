#pragma once
// Per-level retrieval cost model for the query scheduler.
//
// Planning a query means answering "how deep can this reader refine within
// its deadline?" before any delta is fetched. The model estimates the cost
// of each refinement step from three sources:
//
//   1. Product metadata — the container's block records give every delta
//      chunk's stored size. A step reads nothing else: every reader holds
//      its geometry from open.
//   2. Live residency — the hierarchy's find() names the tier that holds
//      each block now, priced by its deterministic envelope (latency +
//      bytes / bandwidth); a block no local tier holds is priced by the
//      peer that would serve it. Cache residency is free where the reader
//      skips the work (BlockCache::probe): a resident blob waives the I/O,
//      since the reader always fetches the blob, and a resident decoded
//      array waives the decode.
//   3. Observed compute — per scheduler, an EWMA of measured decode+restore
//      seconds per stored byte replaces the built-in prior as queries
//      complete. I/O is priced from the envelope alone: observability
//      records what happened and never steers a plan.
//
// The model is a pure planning artifact: building it performs no tier reads
// and leaves the cache untouched. Execution then re-checks the remaining
// budget before every step (ProgressiveReader::refine_while), so a plan that
// turns out optimistic degrades gracefully instead of blowing the deadline.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/progressive_reader.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::serve {

/// Estimated cost of one refinement step (refining TO `level`).
struct LevelCostEstimate {
  std::uint32_t level = 0;
  double io_seconds = 0.0;       // simulated tier fetches of the step's blocks
  double compute_seconds = 0.0;  // decode + restore estimate (wall)
  std::size_t bytes = 0;         // stored bytes the step covers
  std::size_t cached_blocks = 0; // blocks whose blob the cache holds
  double total() const { return io_seconds + compute_seconds; }
};

/// Observed-throughput calibration shared by every query of one scheduler.
/// Thread-safe: workers feed it after each executed query.
class Calibration {
 public:
  /// Decode+restore throughput prior until real queries are observed
  /// (~250 MB/s of stored bytes — deliberately conservative).
  static constexpr double kPriorSecondsPerByte = 4e-9;

  /// Folds one query's measured compute time over `bytes` stored bytes into
  /// the EWMA.
  void observe_compute(std::size_t bytes, double seconds);

  /// Current estimate of decode+restore seconds per stored byte.
  double compute_seconds_per_byte() const {
    return ewma_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> ewma_{kPriorSecondsPerByte};
};

class CostModel {
 public:
  /// Builds per-level step estimates for the variable `reader` has open.
  /// `calibration` may be null (the compute prior applies). Blocks are
  /// priced where they live when the model is built: a plan built while a
  /// tier advisor moves them prices the tier before the move.
  static CostModel build(storage::StorageHierarchy& hierarchy,
                         const core::ProgressiveReader& reader,
                         const Calibration* calibration = nullptr);

  /// One entry per refinable level, index = target level (0 .. levels-2).
  const std::vector<LevelCostEstimate>& steps() const { return steps_; }

  /// Step estimate for refining TO `level` (level < levels-1).
  const LevelCostEstimate& step(std::uint32_t level) const;

  /// Cumulative estimated cost of refining from level `from` down to `to`
  /// (0 when to >= from).
  double cost_between(std::uint32_t from, std::uint32_t to) const;

  /// Deepest (finest) level reachable from `from` within `budget` cost
  /// seconds, never finer than `floor_level`. Returns `from` when even the
  /// first step does not fit — the base is always served.
  std::uint32_t reachable_level(std::uint32_t from, double budget,
                                std::uint32_t floor_level) const;

 private:
  std::vector<LevelCostEstimate> steps_;
};

}  // namespace canopus::serve
