#pragma once
// Deadline-aware query scheduling with admission control.
//
// The paper's elastic-analytics promise (Algorithm 3, Section III-E) is that
// readers trade accuracy for end-to-end speed. Under heavy multi-client load
// that trade must be *arbitrated*: left alone, every session greedily
// refines to its target and the slow tiers saturate. The QueryScheduler is
// that arbiter — the first piece of the repo that behaves like a
// multi-tenant service rather than a library:
//
//   * Admission control. The queue is bounded (ServeConfig::queue_limit);
//     a submission past the bound is shed *immediately* with
//     StatusCode::kOverloaded. Backpressure instead of unbounded queuing:
//     under overload, latency stays bounded and clients learn to back off.
//   * Deadline planning. Each admitted query gets a retrieval-cost budget
//     (its deadline, in seconds of simulated I/O plus the per-value compute
//     price — CostModel::charged). A per-level CostModel
//     (serve/cost_model.hpp) built from product metadata, live residency,
//     cache residency and each tier's deterministic envelope plans the
//     reachable level before any delta is fetched. No decision reads a
//     wall-clock second, so how deep a query refines depends neither on
//     host speed nor on load.
//   * Elastic degradation. Execution re-checks the remaining budget before
//     every refinement step (ProgressiveReader::refine_while). When the
//     deadline stops refinement above the target level the query still
//     returns its coarser field — Status degraded, achieved level and delta
//     RMS reported — which Canopus treats as an answer, not an error.
//   * Priority aging. Workers pop the waiting query with the highest
//     effective priority = priority + age_boost * wait_seconds, so urgent
//     queries jump the queue but a steady high-priority stream cannot
//     starve patient low-priority ones.
//
// Queries execute on the pipeline's shared session pool; results are
// bitwise-identical to an unscheduled read at the same achieved level (the
// scheduler decides *how far* to refine, never *how* — the restoration path
// is untouched).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/cost_model.hpp"
#include "serve/serve_config.hpp"

namespace canopus::fabric {
class Fabric;
}  // namespace canopus::fabric

namespace canopus::serve {

/// One analytics query: which variable, how accurate, by when, how urgent.
struct QueryRequest {
  std::string path;
  std::string var;
  /// Accuracy target: refine to this level (0 = full accuracy). Clamped to
  /// the variable's coarsest level.
  std::uint32_t target_level = 0;
  /// Alternative accuracy target: stop once the RMS of the applied delta
  /// drops below this threshold (must be finite). When set it replaces
  /// target_level as the stop criterion; the deadline still caps the work.
  std::optional<double> rmse_threshold;
  /// Retrieval-cost budget in seconds of simulated I/O plus the per-value
  /// compute price (CostModel::charged). Unset: ServeConfig default. Must be
  /// finite and > 0.
  std::optional<double> deadline_seconds;
  /// Larger = more urgent. Any int; 0 is the neutral default.
  int priority = 0;
  /// Campaign-lifetime geometry; must outlive the query's completion.
  const core::GeometryCache* geometry = nullptr;
};

/// What a served query returns. `values`/`mesh` are the field at the
/// achieved level — bitwise-identical to an unscheduled read refined to the
/// same level.
struct QueryResult {
  mesh::Field values;
  mesh::TriMesh mesh;
  std::uint32_t achieved_level = 0;
  std::uint32_t planned_level = 0;  // the cost model's pre-execution plan
  std::uint32_t target_level = 0;   // clamped request target
  /// RMS of the last applied delta — the achieved-accuracy proxy the
  /// degradation policy reports (0 when no refinement ran).
  double delta_rms = 0.0;
  double deadline_seconds = 0.0;    // the budget the query ran under
  /// CostModel::charged at completion: what the query cost on the budget's
  /// clock, the open included.
  double charged_seconds = 0.0;
  /// What the retrieval took, wall-clock decode and restore included (a
  /// report; no serve decision reads it).
  core::RetrievalTimings timings;
  double queue_seconds = 0.0;       // wall time spent waiting for a worker
  std::uint64_t dispatch_order = 0; // global execution sequence (1-based)
  /// Fabric node the query was dispatched to (-1 = the scheduler's own
  /// hierarchy, no fabric attached). Tests assert a query planned after a
  /// detach never lands on the removed node.
  std::int32_t shard = -1;
  /// Directory epoch the final plan was built against. A topology change
  /// mid-query bumps the epoch; the scheduler rebuilds its cost model when
  /// it notices (see run_query), and this reports the last epoch used.
  std::uint64_t topology_epoch = 0;
};

struct QueryOutcome {
  Status status;
  QueryResult result;
};

class QueryScheduler {
 public:
  /// `hierarchy` must outlive the scheduler. `session_pool`, when given, is
  /// the pool every query's reader fans out on (the Pipeline's session
  /// pool); null falls back to `parallel`'s per-reader behavior.
  QueryScheduler(storage::StorageHierarchy& hierarchy, ServeConfig config,
                 core::ParallelConfig parallel,
                 util::ThreadPool* session_pool = nullptr);

  /// Sheds every still-queued query with kOverloaded, then joins workers.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Non-blocking admission: validates, then either enqueues (future
  /// resolves when a worker finishes the query) or sheds immediately with
  /// kOverloaded when queue_limit queries are already waiting. Never throws.
  std::future<QueryOutcome> submit(QueryRequest request);

  /// Blocking convenience: submit + wait. `result` receives the payload on
  /// any usable outcome (ok, retried, or degraded).
  Status execute(const QueryRequest& request, QueryResult* result);

  /// Admission gate for maintenance and deterministic tests: while paused,
  /// workers stop dispatching. Submissions still enqueue (and shed past the
  /// bound), so a paused scheduler fills its queue reproducibly.
  void pause();
  void resume();

  /// Dispatches subsequent queries across the fabric's shards: each query
  /// runs against the alive node owning the most bytes of its variable
  /// (Fabric::route_query), with remote chunks resolved transparently and
  /// the cost model charging the network envelope for them. The fabric must
  /// outlive the scheduler; pass nullptr to fall back to the constructor's
  /// hierarchy. Safe to call while queries are in flight (they pick up the
  /// new routing on their next dispatch).
  void attach_fabric(fabric::Fabric* fabric) {
    fabric_.store(fabric, std::memory_order_release);
  }

  /// Plugs the workload-adaptive tier advisor in: queries register their
  /// container and record their access intent into its HeatTracker before
  /// refining (the heat signal that drives promotion). Plans still price
  /// blocks where they live now. The advisor must outlive the scheduler;
  /// pass nullptr to detach. Safe to call while queries are in flight.
  void attach_tier_advisor(tiering::TierAdvisor* advisor) {
    advisor_.store(advisor, std::memory_order_release);
  }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;       // kOverloaded at submit or shutdown
    std::uint64_t completed = 0;  // usable outcomes (ok/retried/degraded)
    std::uint64_t degraded = 0;   // subset of completed
    std::uint64_t failed = 0;     // not usable (kNotFound, kIoError, ...)
    std::size_t max_queue_depth = 0;
  };
  Stats stats() const;
  std::size_t queue_depth() const;
  const ServeConfig& config() const { return config_; }

  /// The aging rule, exposed for tests: effective priority of a query that
  /// has waited `wait_seconds`.
  static double effective_priority(int priority, double wait_seconds,
                                   double age_boost) {
    return static_cast<double>(priority) + age_boost * wait_seconds;
  }

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryOutcome> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  QueryOutcome run_query(QueryRequest request, double queue_seconds);
  /// kInvalidArgument for malformed requests, nullopt when admissible.
  static std::optional<Status> validate(const QueryRequest& request);

  storage::StorageHierarchy& hierarchy_;
  const ServeConfig config_;
  const core::ParallelConfig parallel_;
  util::ThreadPool* session_pool_;  // not owned; may be null
  std::atomic<fabric::Fabric*> fabric_{nullptr};  // not owned; may be null
  std::atomic<tiering::TierAdvisor*> advisor_{nullptr};  // not owned; may be null

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool paused_ = false;
  Stats stats_;
  std::atomic<std::uint64_t> dispatch_seq_{0};
  std::vector<std::thread> workers_;  // last: joins before members die
};

}  // namespace canopus::serve
