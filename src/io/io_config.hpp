#pragma once
// Knobs of the batched submission/completion engine (io/io_ring.hpp),
// split into their own header so the config loader and the Pipeline facade
// can carry them without pulling in the engine.

#include <cstdint>

namespace canopus::io {

/// Shape of one IoRing. The default depth of 1 IS the blocking path: the
/// ring issues one read at a time, stops at the first failure, and the
/// accounting degenerates to the plain per-op sum. Depth > 1 (config
/// `<io depth=...>` or the benches' --io-depth) issues reads in batches and
/// charges their overlapped makespan.
struct IoConfig {
  /// Bounded ring size: maximum completions outstanding (executed and not
  /// yet consumed). 0 and 1 both mean blocking.
  std::uint32_t depth = 1;
  /// Maximum ops per aggregated submission to the hierarchy's batched seam
  /// (StorageHierarchy::read_batch). Clamped to depth at run time.
  std::uint32_t batch = 4;
  /// Per-op simulated-clock deadline; an op whose sim cost (including retries
  /// and backoff) exceeds it completes with deadline_missed set and bumps the
  /// io.deadline_misses counter. 0 disables the check.
  double deadline_seconds = 0.0;

  bool enabled() const { return depth > 1; }
};

}  // namespace canopus::io
