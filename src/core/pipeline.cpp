#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <utility>

#include "obs/trace.hpp"
#include "storage/blob_frame.hpp"
#include "storage/tier.hpp"
#include "util/assert.hpp"

namespace canopus {

namespace {

/// Facade shorthand over the shared mapper (core/status.hpp):
/// `not_found_on_error` selects the meaning of a generic canopus::Error —
/// on the open path a missing container or variable surfaces as Error, so
/// kNotFound; elsewhere it is an internal invariant failure.
Status status_from_exception(bool not_found_on_error) {
  return status_from_current_exception(
      not_found_on_error ? StatusCode::kNotFound : StatusCode::kInternal);
}

/// Post-read classification: fold the reader's refine outcome and robustness
/// counters into one Status.
Status status_from_read(core::RefineStatus refine,
                        const core::RetrievalTimings& timings) {
  if (refine == core::RefineStatus::kDegraded) {
    Status s;
    s.code = StatusCode::kDegraded;
    s.degraded = true;
    s.detail = "kept level above the requested accuracy (" +
               std::to_string(timings.degraded_steps) + " degraded step(s))";
    return s;
  }
  if (refine == core::RefineStatus::kRetried || timings.retries > 0 ||
      timings.replica_reads > 0) {
    Status s;
    s.code = StatusCode::kRetried;
    return s;
  }
  return Status::success();
}

}  // namespace

Pipeline::Pipeline(storage::StorageHierarchy& hierarchy, Options options)
    : hierarchy_(&hierarchy), options_(std::move(options)) {
  apply_options();
}

Pipeline::Pipeline(storage::StorageHierarchy&& hierarchy, Options options)
    : owned_(std::move(hierarchy)),
      hierarchy_(&*owned_),
      options_(std::move(options)) {
  apply_options();
}

void Pipeline::apply_options() {
  // One pass, up front: a bad knob surfaces as a contextual canopus::Error
  // here (or a kInvalidArgument Status through load()) instead of a
  // CANOPUS_CHECK abort deep inside the subsystem it configures.
  options_.validate();
  if (options_.observability.has_value()) obs::install(*options_.observability);
  if (options_.retry.has_value()) hierarchy_->set_retry_policy(*options_.retry);
  if (options_.faults) hierarchy_->attach_fault_injector(options_.faults);
  if (options_.cache.has_value() && hierarchy_->block_cache() == nullptr) {
    hierarchy_->attach_block_cache(
        std::make_shared<cache::BlockCache>(*options_.cache));
  }
  // One pool for all ReadSessions, so K sessions never oversubscribe the
  // machine with K private pools. Plain read()/open() keep their per-reader
  // pools (unchanged single-reader determinism contract).
  if (options_.parallel.threads > 0) {
    session_pool_.emplace(options_.parallel.threads);
  }
}

Status Pipeline::load(const core::RuntimeConfig& config,
                      std::unique_ptr<Pipeline>* pipeline) {
  if (pipeline == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "load: pipeline must not be null");
  }
  try {
    Options options = config.options;
    if (!config.faults.empty()) {
      // A fresh injector per load: two pipelines built from one document
      // draw independent fault streams.
      auto injector =
          std::make_shared<storage::FaultInjector>(config.fault_seed);
      for (const auto& tf : config.faults) {
        const auto tier = std::find_if(
            config.tiers.begin(), config.tiers.end(),
            [&](const storage::TierSpec& s) { return s.name == tf.tier_name; });
        if (tier == config.tiers.end()) continue;
        injector->set_profile(
            static_cast<std::size_t>(tier - config.tiers.begin()), tf.profile);
      }
      options.faults = std::move(injector);
    }
    // Pipeline has no move constructor (hierarchy_ points into owned_), so
    // build in place.
    pipeline->reset(new Pipeline(storage::StorageHierarchy(config.tiers),
                                 std::move(options)));
    return Status::success();
  } catch (...) {
    // A malformed or inconsistent config is a caller bug, not an internal
    // failure: generic Errors map to kInvalidArgument.
    return status_from_current_exception(StatusCode::kInvalidArgument);
  }
}

Status Pipeline::load(const std::string& config_path,
                      std::unique_ptr<Pipeline>* pipeline) {
  if (pipeline == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "load: pipeline must not be null");
  }
  if (!std::ifstream(config_path).good()) {
    return Status::failure(StatusCode::kNotFound,
                           "cannot open config file: " + config_path);
  }
  try {
    return load(core::load_config_file(config_path), pipeline);
  } catch (...) {
    // The file is there: a parse error or a rejected value is the caller's.
    return status_from_current_exception(StatusCode::kInvalidArgument);
  }
}

Status Pipeline::write(const WriteRequest& request, WriteResult* result) {
  if (request.path.empty() || request.var.empty()) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "write: path and var are required");
  }
  if (request.mesh == nullptr || request.values == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "write: mesh and values are required");
  }
  if (request.values->size() != request.mesh->vertex_count()) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "write: values/mesh size mismatch (" +
                               std::to_string(request.values->size()) + " vs " +
                               std::to_string(request.mesh->vertex_count()) +
                               ")");
  }
  if (request.config.levels > 1 && request.mesh->triangle_count() == 0) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "write: " + std::to_string(request.config.levels) +
                               " levels need a mesh with triangles to decimate");
  }
  core::RefactorConfig config = request.config;
  config.parallel = options_.parallel;
  try {
    CANOPUS_SPAN("pipeline.write", {{"path", request.path},
                                    {"var", request.var}});
    core::RefactorReport report =
        core::refactor_and_write(*hierarchy_, request.path, request.var,
                                 *request.mesh, *request.values, config);
    if (result) result->report = std::move(report);
    return Status::success();
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/false);
  }
}

Status Pipeline::read(const ReadRequest& request, ReadResult* result) {
  if (result == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "read: result must not be null");
  }
  if (request.path.empty() || request.var.empty()) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "read: path and var are required");
  }
  if (request.rmse_threshold.has_value() &&
      !std::isfinite(*request.rmse_threshold)) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "read: rmse_threshold must be finite");
  }
  try {
    CANOPUS_SPAN("pipeline.read", {{"path", request.path},
                                   {"var", request.var}});
    return run_read(request, result);
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/true);
  }
}

Status Pipeline::run_read(const ReadRequest& request, ReadResult* result) {
  core::ReaderOptions reader_options;
  reader_options.parallel = options_.parallel;
  reader_options.io = options_.io;
  core::ProgressiveReader reader(*hierarchy_, request.path, request.var,
                                 request.geometry, reader_options);
  // Opening retrieved the base; refinement failures from here on are
  // elastic-degradation, not exceptions.
  if (request.roi.has_value()) {
    reader.refine_region(*request.roi);
  } else if (request.rmse_threshold.has_value()) {
    reader.refine_until(*request.rmse_threshold);
  } else {
    const auto target = std::min<std::uint32_t>(
        request.target_level,
        static_cast<std::uint32_t>(reader.level_count() - 1));
    reader.refine_to(target);
  }
  result->values = reader.values();
  result->mesh = reader.current_mesh();
  result->level = reader.current_level();
  result->timings = reader.cumulative();
  result->refine_status = reader.last_status();
  return status_from_read(reader.last_status(), reader.cumulative());
}

Status Pipeline::open(const ReadRequest& request,
                      std::unique_ptr<core::ProgressiveReader>* reader) {
  if (reader == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "open: reader must not be null");
  }
  if (request.path.empty() || request.var.empty()) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "open: path and var are required");
  }
  try {
    core::ReaderOptions reader_options;
    reader_options.parallel = options_.parallel;
    reader_options.io = options_.io;
    *reader = std::make_unique<core::ProgressiveReader>(
        *hierarchy_, request.path, request.var, request.geometry,
        reader_options);
    return Status::success();
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/true);
  }
}

Status Pipeline::open_session(const ReadRequest& request,
                              std::unique_ptr<ReadSession>* session) {
  if (session == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "open_session: session must not be null");
  }
  if (request.path.empty() || request.var.empty()) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "open_session: path and var are required");
  }
  try {
    core::ReaderOptions reader_options;
    reader_options.parallel = options_.parallel;
    reader_options.io = options_.io;
    if (session_pool_.has_value()) {
      reader_options.shared_pool = &*session_pool_;
    }
    auto reader = std::make_unique<core::ProgressiveReader>(
        *hierarchy_, request.path, request.var, request.geometry,
        reader_options);
    session->reset(new ReadSession(std::move(reader)));
    return Status::success();
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/true);
  }
}

Status ReadSession::refine() {
  try {
    const core::RetrievalTimings step = reader_->refine();
    return status_from_read(reader_->last_status(), step);
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/false);
  }
}

Status ReadSession::refine_to(std::uint32_t level) {
  try {
    const core::RetrievalTimings acc = reader_->refine_to(level);
    return status_from_read(reader_->last_status(), acc);
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/false);
  }
}

Status ReadSession::refine_until(double rmse_threshold) {
  if (!std::isfinite(rmse_threshold)) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "refine_until: rmse_threshold must be finite");
  }
  try {
    const core::RetrievalTimings acc = reader_->refine_until(rmse_threshold);
    return status_from_read(reader_->last_status(), acc);
  } catch (...) {
    return status_from_exception(/*not_found_on_error=*/false);
  }
}

Status Pipeline::flush_trace(std::string* path_out) {
  try {
    std::string path = obs::flush();
    if (path_out != nullptr) *path_out = std::move(path);
    return Status::success();
  } catch (...) {
    // obs::flush throws on an unwritable sink path; surface it as I/O.
    return status_from_current_exception(StatusCode::kIoError);
  }
}

fabric::Fabric* Pipeline::serving_fabric() const {
  std::scoped_lock lock(wiring_mu_);
  return fabric_;
}

}  // namespace canopus
