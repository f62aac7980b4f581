#pragma once
// Knobs of the deadline-aware QueryScheduler (src/serve), settable from the
// XML runtime configuration:
//
//   <serve workers="4" queue-limit="64" deadline-default="250ms"
//          age-boost="4"/>
//
// This header is dependency-free on purpose: core/config.hpp and
// core/pipeline.hpp hold a ServeConfig by value while the scheduler itself
// lives in the serve module (which links against core, not the other way
// round). See serve/query_scheduler.hpp for the admission-control contract.

#include <cstddef>

namespace canopus::serve {

struct ServeConfig {
  /// Concurrent query executors. Each worker runs one query at a time on the
  /// pipeline's shared session pool; the worker count is the service
  /// capacity, everything beyond it waits in the admission queue.
  std::size_t workers = 2;

  /// Bounded admission queue: a submission arriving while this many queries
  /// are already waiting is shed immediately with StatusCode::kOverloaded.
  /// Backpressure instead of unbounded queuing — a shed client knows at once
  /// and can back off, retry coarser, or go elsewhere.
  std::size_t queue_limit = 32;

  /// Retrieval-cost budget applied when a QueryRequest names no deadline of
  /// its own, in seconds of simulated I/O plus the per-value compute price
  /// (CostModel::charged).
  double default_deadline_seconds = 0.25;

  /// Priority points a waiting query gains per second of queue time.
  /// Aging guarantees low-priority queries are not starved under a steady
  /// high-priority stream; 0 disables it (strict priority, FIFO within a
  /// priority).
  double age_boost = 4.0;
};

}  // namespace canopus::serve
