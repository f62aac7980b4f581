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
//   3. The per-value compute price — kComputeSecondsPerValue per value a
//      step decodes (BlockRecord::value_count), standing in for decode plus
//      restore. A fixed price, so the budget reads one clock: simulated I/O
//      plus the per-value compute price, never a wall-clock second, and a
//      plan depends on neither host load nor what observability records.
//
// The model is a pure planning artifact: building it performs no tier reads
// and leaves the cache untouched. Execution then re-checks the remaining
// budget before every step (ProgressiveReader::refine_while) against
// charged(), what the reader has cost so far on the same clock, so a plan
// that turns out optimistic degrades gracefully instead of blowing the
// deadline.

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
  double compute_seconds = 0.0;  // priced decode + restore of its values
  std::size_t bytes = 0;         // stored bytes the step covers
  std::size_t cached_blocks = 0; // blocks whose blob the cache holds
  double total() const { return io_seconds + compute_seconds; }
};

class CostModel {
 public:
  /// Price of decoding and restoring one value. Timed over the benchmark's
  /// XGC container (decode plus restore, reader with its geometry, io depth
  /// 1) on two 4-vCPU x86-64 guests: the L0 step took 1.16-1.70 ms for
  /// 20,800 values, L1 0.63-0.91 ms for 10,400 and L2 0.33-0.50 ms for
  /// 5,200, about 65-90 ns per value. Priced per value, not per stored
  /// byte: the work scales with the values, however well the codec packs
  /// them.
  static constexpr double kComputeSecondsPerValue = 8e-8;

  /// Builds per-level step estimates for the variable `reader` has open.
  /// Blocks are priced where they live when the model is built: a plan
  /// built while a tier advisor moves them prices the tier before the move.
  static CostModel build(storage::StorageHierarchy& hierarchy,
                         const core::ProgressiveReader& reader);

  /// What `reader` has cost so far on the budget's clock: its simulated I/O,
  /// the open included, plus kComputeSecondsPerValue per value it decoded
  /// (the base, then each step's deltas; a decoded array the cache served
  /// is free, as the model prices it). A cacheless open's geometry load is
  /// charged its reads only.
  static double charged(const core::ProgressiveReader& reader);

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
