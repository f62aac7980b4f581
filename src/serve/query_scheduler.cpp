#include "serve/query_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "adios/bp.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/blob_frame.hpp"
#include "storage/tier.hpp"
#include "tiering/tier_advisor.hpp"
#include "util/assert.hpp"

namespace canopus::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Shared facade mapper (core/status.hpp): a query executes the open path,
/// so a generic canopus::Error means a missing container or variable
/// (kNotFound), not an internal invariant failure.
Status status_from_query_exception() {
  return status_from_current_exception(StatusCode::kNotFound);
}

void count_serve(const char* what) {
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter(std::string("serve.") + what).add(1);
  }
}

void gauge_queue_depth(std::size_t depth) {
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(depth));
  }
}

}  // namespace

QueryScheduler::QueryScheduler(storage::StorageHierarchy& hierarchy,
                               ServeConfig config, core::ParallelConfig parallel,
                               util::ThreadPool* session_pool)
    : hierarchy_(hierarchy),
      config_(config),
      parallel_(parallel),
      session_pool_(session_pool) {
  CANOPUS_CHECK(config_.workers >= 1, "scheduler needs at least one worker");
  CANOPUS_CHECK(config_.queue_limit >= 1, "queue limit must be >= 1");
  CANOPUS_CHECK(std::isfinite(config_.default_deadline_seconds) &&
                    config_.default_deadline_seconds > 0.0,
                "default deadline must be finite and > 0");
  CANOPUS_CHECK(std::isfinite(config_.age_boost) && config_.age_boost >= 0.0,
                "age boost must be finite and >= 0");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  std::deque<Pending> leftover;
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
    leftover.swap(queue_);
    stats_.shed += leftover.size();
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  gauge_queue_depth(0);
  for (auto& pending : leftover) {
    count_serve("shed");
    QueryOutcome out;
    out.status = Status::failure(StatusCode::kOverloaded,
                                 "scheduler shut down before dispatch");
    pending.promise.set_value(std::move(out));
  }
}

std::optional<Status> QueryScheduler::validate(const QueryRequest& request) {
  if (request.path.empty() || request.var.empty()) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "query: path and var are required");
  }
  if (request.rmse_threshold.has_value() &&
      !std::isfinite(*request.rmse_threshold)) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "query: rmse_threshold must be finite");
  }
  if (request.deadline_seconds.has_value() &&
      !(std::isfinite(*request.deadline_seconds) &&
        *request.deadline_seconds > 0.0)) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "query: deadline_seconds must be finite and > 0");
  }
  return std::nullopt;
}

std::future<QueryOutcome> QueryScheduler::submit(QueryRequest request) {
  std::promise<QueryOutcome> promise;
  std::future<QueryOutcome> future = promise.get_future();
  if (const auto invalid = validate(request)) {
    QueryOutcome out;
    out.status = *invalid;
    promise.set_value(std::move(out));
    return future;
  }
  bool shed = false;
  {
    std::scoped_lock lock(mu_);
    ++stats_.submitted;
    if (stop_ || queue_.size() >= config_.queue_limit) {
      ++stats_.shed;
      shed = true;
    } else {
      ++stats_.admitted;
      queue_.push_back(Pending{std::move(request), std::move(promise),
                               std::chrono::steady_clock::now()});
      stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
      gauge_queue_depth(queue_.size());
    }
  }
  if (shed) {
    count_serve("shed");
    QueryOutcome out;
    out.status = Status::failure(
        StatusCode::kOverloaded,
        "admission queue full (" + std::to_string(config_.queue_limit) +
            " waiting); back off and retry");
    promise.set_value(std::move(out));
  } else {
    count_serve("admitted");
    cv_.notify_one();
  }
  return future;
}

Status QueryScheduler::execute(const QueryRequest& request, QueryResult* result) {
  QueryOutcome outcome = submit(request).get();
  if (result != nullptr && outcome.status.usable()) {
    *result = std::move(outcome.result);
  }
  return outcome.status;
}

void QueryScheduler::pause() {
  std::scoped_lock lock(mu_);
  paused_ = true;
}

void QueryScheduler::resume() {
  {
    std::scoped_lock lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

QueryScheduler::Stats QueryScheduler::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

std::size_t QueryScheduler::queue_depth() const {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

void QueryScheduler::worker_loop() {
  for (;;) {
    Pending job;
    double queue_seconds = 0.0;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return stop_ || (!paused_ && !queue_.empty()); });
      if (stop_) return;  // the destructor sheds whatever is still queued
      // Priority-aged pop: highest effective priority wins; the strict `>`
      // keeps FIFO order among equals (earlier arrivals sit at lower
      // indices). O(queue_limit) — the queue is bounded and small.
      const auto now = std::chrono::steady_clock::now();
      std::size_t best = 0;
      double best_priority = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const double p = effective_priority(
            queue_[i].request.priority,
            seconds_between(queue_[i].enqueued, now), config_.age_boost);
        if (p > best_priority) {
          best_priority = p;
          best = i;
        }
      }
      job = std::move(queue_[best]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
      gauge_queue_depth(queue_.size());
      queue_seconds = seconds_between(job.enqueued, now);
    }

    QueryOutcome out = run_query(std::move(job.request), queue_seconds);
    {
      std::scoped_lock lock(mu_);
      if (out.status.usable()) {
        ++stats_.completed;
        if (out.status.degraded) ++stats_.degraded;
      } else {
        ++stats_.failed;
      }
    }
    if (out.status.usable()) {
      count_serve(out.status.degraded ? "degraded" : "completed");
    } else {
      count_serve("failed");
    }
    job.promise.set_value(std::move(out));
  }
}

QueryOutcome QueryScheduler::run_query(QueryRequest request,
                                       double queue_seconds) {
  QueryOutcome out;
  out.result.queue_seconds = queue_seconds;
  out.result.dispatch_order =
      dispatch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .histogram("serve.queue_wait_us")
        .observe(queue_seconds * 1e6);
  }
  // Fabric dispatch: route to the shard with the most bytes of this
  // variable; the node's hierarchy resolves the rest of the chunks remotely.
  storage::StorageHierarchy* hierarchy = &hierarchy_;
  int shard = -1;
  if (auto* fabric = fabric_.load(std::memory_order_acquire)) {
    shard = static_cast<int>(fabric->route_query(request.path, request.var));
    hierarchy = &fabric->node(static_cast<std::size_t>(shard));
    count_serve("fabric_dispatches");
  }
  out.result.shard = shard;
  CANOPUS_SPAN("serve.query", {{"var", request.var},
                               {"priority", request.priority},
                               {"shard", shard}});
  try {
    core::ReaderOptions reader_options;
    reader_options.parallel = parallel_;
    if (session_pool_ != nullptr) reader_options.shared_pool = session_pool_;
    core::ProgressiveReader reader(*hierarchy, request.path, request.var,
                                   request.geometry, reader_options);

    const double deadline =
        request.deadline_seconds.value_or(config_.default_deadline_seconds);
    const auto coarsest = static_cast<std::uint32_t>(reader.level_count() - 1);
    const std::uint32_t target = std::min(request.target_level, coarsest);
    // Adaptive tiering: record this query's access intent — the base plus
    // every delta level the refinement will touch — into the advisor's heat
    // before any byte moves, so placement follows the workload rather than
    // trailing it. (register_container is an idempotent no-op after the
    // first query against the path.)
    tiering::TierAdvisor* advisor = advisor_.load(std::memory_order_acquire);
    if (advisor != nullptr) {
      advisor->register_container(request.path);
      for (const auto& b : reader.var_info().blocks) {
        const bool touched =
            b.kind == adios::BlockKind::kBase ||
            b.kind == adios::BlockKind::kData ||
            (b.kind == adios::BlockKind::kDelta && b.level >= target);
        if (touched) advisor->heat().record(b.object_key, 1.0);
      }
    }
    // The cost model prices remote blocks through the directory's current
    // ownership (RemoteStore::estimated_read_cost). A topology change bumps
    // the epoch the node's RemoteStore surfaces; re-reading it before every
    // step lets a long query re-plan against migrated ownership instead of
    // budgeting with a retired layout.
    const auto topology_epoch = [hierarchy]() -> std::uint64_t {
      const auto* remote = hierarchy->remote_store();
      return remote != nullptr ? remote->topology_epoch() : 0;
    };
    std::uint64_t model_epoch = topology_epoch();
    CostModel model = CostModel::build(*hierarchy, reader);
    // The open already spent part of the budget; plan the reachable level
    // with what is left. Even a budget the open alone exceeded serves the
    // base — the elastic floor is "always answer something".
    const std::uint32_t planned = model.reachable_level(
        reader.current_level(), deadline - CostModel::charged(reader), target);

    const bool rmse_mode = request.rmse_threshold.has_value();
    const double rmse_threshold = request.rmse_threshold.value_or(0.0);
    reader.refine_while([&](std::uint32_t next) {
      if (!rmse_mode && next < target) return false;
      if (rmse_mode && reader.last_delta_rms().has_value() &&
          *reader.last_delta_rms() < rmse_threshold) {
        return false;  // accuracy criterion met
      }
      // Re-check the budget before every step on the plan's clock: a plan
      // that turned out optimistic stops early instead of blowing the
      // deadline. When the topology moved underneath the query (a node
      // attach or detach committed a new epoch), rebuild the model
      // first so remaining steps are priced at the blocks' new homes.
      if (const std::uint64_t now_epoch = topology_epoch();
          now_epoch != model_epoch) {
        model = CostModel::build(*hierarchy, reader);
        model_epoch = now_epoch;
        count_serve("replans");
      }
      const double step_cost = next < model.steps().size()
                                   ? model.step(next).total()
                                   : 0.0;
      return CostModel::charged(reader) + step_cost <= deadline;
    });

    const core::RetrievalTimings& done = reader.cumulative();
    out.result.values = reader.values();
    out.result.mesh = reader.current_mesh();
    out.result.achieved_level = reader.current_level();
    out.result.planned_level = planned;
    out.result.target_level = target;
    out.result.delta_rms = reader.last_delta_rms().value_or(0.0);
    out.result.deadline_seconds = deadline;
    out.result.charged_seconds = CostModel::charged(reader);
    out.result.timings = done;
    out.result.topology_epoch = model_epoch;

    const bool faulted = reader.last_status() == core::RefineStatus::kDegraded;
    const bool accuracy_met =
        rmse_mode ? reader.at_full_accuracy() ||
                        (reader.last_delta_rms().has_value() &&
                         *reader.last_delta_rms() < rmse_threshold)
                  : reader.current_level() <= target;
    if (faulted || !accuracy_met) {
      out.status.code = StatusCode::kDegraded;
      out.status.degraded = true;
      out.status.detail =
          "served level " + std::to_string(out.result.achieved_level) +
          " (target " + std::to_string(target) + ", planned " +
          std::to_string(planned) + ") at delta RMS " +
          std::to_string(out.result.delta_rms) + " within a " +
          std::to_string(deadline) + "s budget" +
          (faulted ? "; a step degraded on tier faults" : "");
    } else if (done.retries > 0 || done.replica_reads > 0) {
      out.status.code = StatusCode::kRetried;
    }
  } catch (...) {
    out.status = status_from_query_exception();
  }
  return out;
}

}  // namespace canopus::serve
