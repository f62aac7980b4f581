#pragma once
// canopus::Options — the one description of what a Pipeline consumes.
//
// Concurrency (core::ParallelConfig), instrumentation
// (obs::ObservabilityOptions), robustness (storage::RetryPolicy +
// FaultInjector), caching (cache::CacheConfig), serving (serve::ServeConfig),
// I/O overlap (io::IoConfig) and adaptive tiering (tiering::TieringConfig) are
// gathered here, with one fluent builder per block, uniform defaults, and a
// single validation pass that reports every inconsistency with its subsystem
// context ("canopus::Options: serve.workers (<serve> workers) must be >= 1")
// instead of a CANOPUS_CHECK deep inside the subsystem.
//
//   auto options = canopus::Options{}
//                      .with_threads(8)
//                      .with_cache({.budget_bytes = 256 << 20})
//                      .with_serve({.workers = 4, .queue_limit = 64});
//   canopus::Pipeline pipeline(tiers, options);
//
// The XML loader (core/config.hpp) parses its Options-level blocks straight
// into a RuntimeConfig's `options` member and validates them with this same
// validate(), so a rule is written once for both spellings.
//
// The per-subsystem structs themselves stay where their subsystem defines
// them (serve/serve_config.hpp, io/io_config.hpp, ...): Options is the
// aggregation point, not a parallel redefinition, so a knob added to a
// subsystem is immediately settable here.

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cache/block_cache.hpp"
#include "core/status.hpp"
#include "core/types.hpp"
#include "io/io_config.hpp"
#include "obs/observability.hpp"
#include "serve/serve_config.hpp"
#include "storage/hierarchy.hpp"
#include "tiering/tiering_config.hpp"

namespace canopus {

/// Pipeline-lifetime configuration: the one place concurrency,
/// instrumentation, fault policy, caching, serving, async I/O, and adaptive
/// tiering are set.
struct Options {
  /// Worker count / pipeline overlap / read-ahead for both directions.
  core::ParallelConfig parallel;
  /// When set, obs::install()ed at construction (enables or disables
  /// process-wide metrics+tracing). Leave unset to keep the current global
  /// observability state (e.g. a bench already enabled --trace-out).
  std::optional<obs::ObservabilityOptions> observability;
  /// When set, applied to the hierarchy at construction.
  std::optional<storage::RetryPolicy> retry;
  /// When set, attached to the hierarchy at construction (seeded fault
  /// injection for robustness testing).
  std::shared_ptr<storage::FaultInjector> faults;
  /// When set, a shared BlockCache with this budget/sharding is attached to
  /// the hierarchy at construction (unless one is already attached): tier
  /// blobs and decoded chunk arrays are then shared across every reader and
  /// ReadSession of this pipeline, with single-flight loading. Leave unset
  /// for the uncached (per-reader) behavior.
  std::optional<cache::CacheConfig> cache;
  /// When set, Pipeline::submit_query()'s QueryScheduler is created with
  /// these knobs (worker count, bounded admission queue, default deadline,
  /// priority aging). Leave unset to get ServeConfig defaults on first use.
  std::optional<serve::ServeConfig> serve;
  /// Overlap depth forwarded into every reader/session this pipeline opens
  /// (core::ReaderOptions::io). The depth-1 default charges the blocking
  /// per-read sum.
  io::IoConfig io;
  /// Workload-adaptive tiering (heat tracking + TierAdvisor policy). When
  /// set, Pipeline::tier_advisor() is built with these knobs — and created
  /// eagerly by query_scheduler() when `tiering->enabled`, so queries feed
  /// heat from the first submission.
  /// Leave unset for static placement (the advisor can still be created
  /// explicitly with defaults via Pipeline::tier_advisor()).
  std::optional<tiering::TieringConfig> tiering;

  // --- Fluent builders (each returns *this so calls chain). -----------------

  Options& with_parallel(core::ParallelConfig value) {
    parallel = value;
    return *this;
  }
  /// Shorthand for the most-set knob: parallel.threads.
  Options& with_threads(std::size_t threads) {
    parallel.threads = threads;
    return *this;
  }
  Options& with_observability(obs::ObservabilityOptions value) {
    observability = std::move(value);
    return *this;
  }
  /// Shorthand: enable observability with a Chrome-trace sink at `path`.
  Options& with_trace(std::string path) {
    obs::ObservabilityOptions o;
    o.enabled = true;
    o.trace_path = std::move(path);
    observability = std::move(o);
    return *this;
  }
  Options& with_retry(storage::RetryPolicy value) {
    retry = value;
    return *this;
  }
  Options& with_faults(std::shared_ptr<storage::FaultInjector> value) {
    faults = std::move(value);
    return *this;
  }
  Options& with_cache(cache::CacheConfig value) {
    cache = value;
    return *this;
  }
  Options& with_serve(serve::ServeConfig value) {
    serve = value;
    return *this;
  }
  Options& with_io(io::IoConfig value) {
    io = value;
    return *this;
  }
  Options& with_tiering(tiering::TieringConfig value) {
    tiering = value;
    return *this;
  }

  /// One validation pass over every set block. Throws canopus::Error whose
  /// message names the offending knob and its XML attribute
  /// ("canopus::Options: serve.workers (<serve> workers) must be >= 1"); the
  /// facade boundary (Pipeline construction, Pipeline::load) maps it to
  /// StatusCode::kInvalidArgument.
  void validate() const;

  /// Exception-free validation for Status-first call sites.
  Status check() const;
};

}  // namespace canopus
