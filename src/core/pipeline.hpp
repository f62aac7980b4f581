#pragma once
// The redesigned public facade: canopus::Pipeline.
//
// Before this facade the public surface had grown organically — two
// refactor_and_write overloads, a many-argument ProgressiveReader
// constructor, exceptions on some paths and RefineStatus + counters on
// others. Pipeline consolidates it: option-struct requests, one
// Status-returning entry point per direction, and one place
// (canopus::Options, core/options.hpp) where concurrency, fault policy,
// caching, serving, and the cluster shape are configured instead of growing
// every signature.
//
//   storage::StorageHierarchy tiers({...});
//   Pipeline pipeline(tiers);
//
//   WriteRequest wreq;                       // option struct, designated-init
//   wreq.path = "run.bp"; wreq.var = "dpot";
//   wreq.mesh = &mesh; wreq.values = &values;
//   wreq.config.levels = 3;
//   Status ws = pipeline.write(wreq);
//
//   ReadRequest rreq;
//   rreq.path = "run.bp"; rreq.var = "dpot";
//   rreq.target_level = 0;                   // full accuracy
//   ReadResult data;
//   Status rs = pipeline.read(rreq, &data);  // rs.degraded => partial accuracy
//
// Error-reporting invariant (core/status.hpp, DESIGN.md §14): every public
// entry point on Pipeline and ReadSession returns a Status; exceptions from
// the layers underneath are mapped at this boundary and never escape.
//
// The facade is also the cluster control plane: attach_fabric() plugs a
// fabric::Fabric in, after which attach_node()/detach_node() grow and shrink
// the topology at runtime while queries keep being served, and topology()
// snapshots it (core/topology.hpp). Members that touch another module's
// types are defined in that module — the topology control plane in
// src/fabric/pipeline_fabric.cpp; query_scheduler(), tier_advisor() and
// attach_fabric(), which wire scheduler, advisor and fabric together, in
// src/serve/pipeline_serve.cpp — so core itself references no serve, fabric
// or tiering symbol.
//
// The pre-facade entry points (core::refactor_and_write overloads and the
// core::ProgressiveReader constructor) remain as thin deprecated wrappers
// around the same engine for source compatibility; new code should come in
// through Pipeline.

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cache/block_cache.hpp"
#include "core/config.hpp"
#include "core/geometry_cache.hpp"
#include "core/options.hpp"
#include "core/progressive_reader.hpp"
#include "core/refactorer.hpp"
#include "core/status.hpp"
#include "core/topology.hpp"
#include "obs/observability.hpp"
#include "serve/serve_config.hpp"
#include "storage/hierarchy.hpp"

namespace canopus {

// Only forward declarations of the serve, fabric and tiering types: those
// modules link against core, so the members touching them are defined in
// src/serve/pipeline_serve.cpp and src/fabric/pipeline_fabric.cpp.
namespace serve {
struct QueryRequest;
struct QueryResult;
class QueryScheduler;
}  // namespace serve

namespace fabric {
class Fabric;
}  // namespace fabric

namespace tiering {
class TierAdvisor;
struct TieringReport;
}  // namespace tiering

/// Everything one refactor-and-write needs: the mesh and its field, run
/// through the full decimate/delta/compress/place pipeline. A campaign that
/// shares one mesh across timesteps amortizes decimation with
/// core::write_campaign instead.
struct WriteRequest {
  std::string path;  // container name, e.g. "run.bp"
  std::string var;   // variable name, e.g. "dpot"
  const mesh::TriMesh* mesh = nullptr;
  const mesh::Field* values = nullptr;
  /// Refactoring knobs. `config.parallel` is ignored: concurrency comes from
  /// canopus::Options so it is configured once per pipeline, not per call.
  core::RefactorConfig config;
};

struct WriteResult {
  core::RefactorReport report;
};

/// Everything one progressive read needs. By default the variable is
/// restored to full accuracy; `target_level`, `rmse_threshold`, and `roi`
/// select the elastic alternatives.
struct ReadRequest {
  std::string path;
  std::string var;
  /// Refine until this accuracy level (0 = full accuracy, N-1 = base only).
  std::uint32_t target_level = 0;
  /// When set, stop refining once the RMS change between consecutive levels
  /// drops below this threshold (Section III-E automated termination);
  /// overrides target_level.
  std::optional<double> rmse_threshold;
  /// When set, perform one focused refinement fetching only the delta chunks
  /// intersecting this region (Section III-E ROI retrieval); overrides
  /// target_level and rmse_threshold.
  std::optional<mesh::Aabb> roi;
  /// Campaign-lifetime geometry (meshes, derived mappings, spatial orders);
  /// must outlive the call. Without it the reader loads the container's
  /// geometry at open, derives the mappings, and charges that load to the
  /// timings.
  const core::GeometryCache* geometry = nullptr;
};

struct ReadResult {
  mesh::Field values;    // restored field at `level`
  mesh::TriMesh mesh;    // its geometry
  std::uint32_t level = 0;
  core::RetrievalTimings timings;  // includes the base retrieval
  core::RefineStatus refine_status = core::RefineStatus::kOk;
};

/// One concurrent progressive-read session, created by
/// Pipeline::open_session(). Sessions wrap a ProgressiveReader behind the
/// facade's Status-returning contract (refine() never throws) and — unlike
/// Pipeline::open()'s raw readers — share the pipeline's session thread pool
/// and its block cache, so K sessions refining the same variable trigger one
/// tier fetch and one decode per chunk between them.
///
/// A session is single-threaded (one session per analytics client); many
/// sessions may run concurrently against the same Pipeline.
class ReadSession {
 public:
  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;

  /// One refinement step. Degradation (delta unreadable after retries +
  /// replica fallback) comes back as a degraded Status, not an exception.
  Status refine();
  /// Refines until `level` (inclusive) or a step degrades.
  Status refine_to(std::uint32_t level);
  /// Refines until the inter-level RMS change drops below `rmse_threshold`,
  /// full accuracy is reached, or a step degrades.
  Status refine_until(double rmse_threshold);

  const mesh::Field& values() const { return reader_->values(); }
  const mesh::TriMesh& mesh() const { return reader_->current_mesh(); }
  std::uint32_t level() const { return reader_->current_level(); }
  bool at_full_accuracy() const { return reader_->at_full_accuracy(); }
  std::size_t level_count() const { return reader_->level_count(); }
  const core::RetrievalTimings& timings() const { return reader_->cumulative(); }

  /// Escape hatch to the underlying reader (refine_region, last_status, ...).
  core::ProgressiveReader& reader() { return *reader_; }

 private:
  friend class Pipeline;
  explicit ReadSession(std::unique_ptr<core::ProgressiveReader> reader)
      : reader_(std::move(reader)) {}

  std::unique_ptr<core::ProgressiveReader> reader_;
};

class Pipeline {
 public:
  /// Borrows `hierarchy` (must outlive the pipeline). Throws canopus::Error
  /// when `options` fail validation (Options::validate()); use load() for a
  /// Status-returning construction path.
  explicit Pipeline(storage::StorageHierarchy& hierarchy,
                    Options options = {});
  /// Takes ownership of `hierarchy`.
  explicit Pipeline(storage::StorageHierarchy&& hierarchy,
                    Options options = {});

  /// Builds a pipeline from an XML RuntimeConfig file: a hierarchy over the
  /// configured tiers, given the config's Options plus
  /// a fresh FaultInjector from its <faults> plan. kNotFound when the file
  /// cannot be read, kInvalidArgument for a malformed or inconsistent config.
  static Status load(const std::string& config_path,
                     std::unique_ptr<Pipeline>* pipeline);
  static Status load(const core::RuntimeConfig& config,
                     std::unique_ptr<Pipeline>* pipeline);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  storage::StorageHierarchy& hierarchy() { return *hierarchy_; }
  const storage::StorageHierarchy& hierarchy() const { return *hierarchy_; }
  const Options& options() const { return options_; }

  /// Refactors and writes one variable. Never throws: failures come back as
  /// a Status (kInvalidArgument, kCapacity, kIoError, ...).
  Status write(const WriteRequest& request, WriteResult* result = nullptr);

  /// Retrieves one variable at the requested accuracy. Never throws. A
  /// degraded Status (usable() but not ok()) means faults stopped refinement
  /// early and `result` holds the last good level.
  Status read(const ReadRequest& request, ReadResult* result);

  /// Opens a ProgressiveReader at base accuracy for step-wise refinement
  /// (interactive analytics, ROI zooming). The reader borrows the pipeline's
  /// hierarchy and inherits its concurrency options; request.target_level /
  /// rmse_threshold / roi are ignored here.
  Status open(const ReadRequest& request,
              std::unique_ptr<core::ProgressiveReader>* reader);

  /// Opens a concurrent read session at base accuracy. Sessions share the
  /// pipeline's session thread pool (one pool for all sessions, sized by
  /// Options::parallel.threads) and the hierarchy's block cache when one is
  /// configured, so N sessions over the same products cost ~one tier fetch +
  /// one decode per block instead of N. request.target_level /
  /// rmse_threshold / roi are ignored here; refine from the session instead.
  Status open_session(const ReadRequest& request,
                      std::unique_ptr<ReadSession>* session);

  /// Submits one deadline/priority query to the pipeline's QueryScheduler
  /// (serving-under-load entry point: bounded admission queue, per-level
  /// cost-model planning, elastic degradation). Blocks until the query
  /// completes, degrades, or is shed; never throws. kOverloaded means the
  /// admission queue was full and no work was done; a degraded Status means
  /// the deadline (or a fault) stopped refinement above the target level and
  /// `result` holds the coarser answer. Defined in the serve module
  /// (src/serve/pipeline_serve.cpp); see serve/query_scheduler.hpp.
  Status submit_query(const serve::QueryRequest& request,
                      serve::QueryResult* result);

  /// The pipeline's scheduler, created on first use from Options::serve (or
  /// defaults); never null. Use for non-blocking submission (submit()),
  /// stats, and the pause/resume admission gate. With Options::tiering
  /// enabled the first call also creates the tier advisor, so queries feed
  /// heat from the first submission.
  serve::QueryScheduler& query_scheduler();

  // --- Adaptive tiering. ----------------------------------------------------

  /// The pipeline's TierAdvisor, created on first use from Options::tiering
  /// (or defaults); never null. On creation it watches the pipeline's
  /// hierarchy, follows the attached fabric (now and on later attaches), is
  /// handed to the query scheduler, which feeds it each query's access
  /// intent, and — when Options::tiering.enabled — starts its background
  /// policy thread.
  tiering::TierAdvisor& tier_advisor();

  /// Counter snapshot of the advisor (ticks, promotions, demotions, ...);
  /// creates the advisor on first use like tier_advisor().
  tiering::TieringReport tiering_report();

  // --- Cluster control plane. -----------------------------------------------

  /// Plugs a serving fabric into the facade (borrowed; must outlive the
  /// pipeline, pass nullptr to unplug). Queries submitted after this route
  /// across the fabric's nodes, the advisor (if any) follows its nodes, and
  /// the topology entry points below become live.
  Status attach_fabric(fabric::Fabric* fabric);

  /// The attached fabric, or nullptr. (Named serving_fabric because a member
  /// named `fabric` would shadow namespace canopus::fabric in class scope.)
  fabric::Fabric* serving_fabric() const;

  /// Grows the cluster by one node; `*id` (optional) receives its stable
  /// node id. Only the chunks whose directory owner changed migrate, and they
  /// have migrated when this returns — queries on other threads are served
  /// throughout (old owner until each chunk's cutover). kIoError when moves
  /// were abandoned (no readable copy or no room on the new owner);
  /// kInvalidArgument when no fabric is attached.
  Status attach_node(std::uint32_t* id = nullptr);

  /// Moves every primary chunk off node `id` (copy → cutover → retire,
  /// replicas repaired onto the new ring successors) while the node keeps
  /// serving, then removes it from service: afterwards it no longer routes,
  /// serves, or holds data, and queries planned after this never touch it.
  /// kInvalidArgument for an unknown, detached, or last active node.
  Status detach_node(std::uint32_t id);

  /// Point-in-time cluster snapshot (epoch, per-node occupancy and liveness,
  /// migration count). Single-node pipelines (no fabric attached) report one
  /// implicit node over the pipeline's own hierarchy.
  Topology topology() const;

  /// The cache attached to the hierarchy, or nullptr (for stats in benches).
  cache::BlockCache* block_cache() const { return hierarchy_->block_cache(); }

  /// Writes the Chrome trace to the installed observability sink, if any.
  /// `*path_out` (optional) receives the path written ("" when no sink is
  /// configured — that is kOk: nothing to flush is not a failure).
  Status flush_trace(std::string* path_out = nullptr);

 private:
  Status run_read(const ReadRequest& request, ReadResult* result);
  /// Shared ctor tail and the only code that attaches options to the
  /// hierarchy: validation, observability, retry, faults, cache, session
  /// pool.
  void apply_options();
  /// The one wiring step (defined in the serve module): connects whatever
  /// exists of fabric, advisor and scheduler — fabric to advisor, fabric to
  /// scheduler, advisor to scheduler. Caller holds wiring_mu_.
  void connect_locked();

  std::optional<storage::StorageHierarchy> owned_;
  storage::StorageHierarchy* hierarchy_;
  Options options_;
  /// One worker pool shared by every ReadSession (sized by
  /// options_.parallel.threads; sessions fall back to the global pool when
  /// no thread count is pinned).
  std::optional<util::ThreadPool> session_pool_;
  /// Guards the three wired parts below — the attached fabric and the
  /// advisor and scheduler, each created at most once on first use — and
  /// every connect_locked() call.
  mutable std::mutex wiring_mu_;
  fabric::Fabric* fabric_ = nullptr;
  /// Created by tier_advisor() or query_scheduler(). Declared before
  /// scheduler_ so the scheduler — which holds a raw pointer to the advisor —
  /// is destroyed first. shared_ptr's type-erased deleter makes the
  /// incomplete type safe to destroy from core TUs.
  std::shared_ptr<tiering::TierAdvisor> advisor_;
  /// Created by query_scheduler(). Declared after session_pool_ so the
  /// scheduler's workers join before the pool they execute on is torn down.
  std::shared_ptr<serve::QueryScheduler> scheduler_;
};

}  // namespace canopus
