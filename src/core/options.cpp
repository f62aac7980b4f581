#include "core/options.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace canopus {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error("canopus::Options: " + what);
}

void require(bool ok, const char* what) {
  if (!ok) fail(what);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

void Options::validate() const {
  // Every rule here restates a CANOPUS_CHECK that used to fire deep inside a
  // subsystem constructor; validating up front turns a mid-construction
  // abort into a contextual kInvalidArgument at the facade boundary. The XML
  // loader calls this too, so each message names the knob and its attribute.
  if (observability.has_value()) {
    require(observability->histogram_buckets >= 2,
            "observability.histogram_buckets (<observability> "
            "histogram-buckets) must be >= 2");
  }
  if (retry.has_value()) {
    require(retry->max_attempts >= 1,
            "retry.max_attempts (<retry> max-attempts) must be >= 1");
    require(std::isfinite(retry->backoff_seconds) &&
                retry->backoff_seconds >= 0.0,
            "retry.backoff_seconds (<retry> backoff) must be finite and >= 0");
    require(std::isfinite(retry->backoff_multiplier) &&
                retry->backoff_multiplier >= 1.0,
            "retry.backoff_multiplier (<retry> multiplier) must be finite and "
            ">= 1");
  }
  if (cache.has_value()) {
    require(cache->budget_bytes > 0,
            "cache.budget_bytes (<cache> budget) must be > 0");
    require(cache->shards >= 1, "cache.shards (<cache> shards) must be >= 1");
  }
  if (serve.has_value()) {
    require(serve->workers >= 1, "serve.workers (<serve> workers) must be >= 1");
    require(serve->queue_limit >= 1,
            "serve.queue_limit (<serve> queue-limit) must be >= 1");
    require(finite_positive(serve->default_deadline_seconds),
            "serve.default_deadline_seconds (<serve> deadline-default) must "
            "be finite and > 0");
    require(std::isfinite(serve->age_boost) && serve->age_boost >= 0.0,
            "serve.age_boost (<serve> age-boost) must be finite and >= 0");
  }
  require(io.depth >= 1, "io.depth (<io> depth) must be >= 1");
  require(io.batch >= 1, "io.batch (<io> batch) must be >= 1");
  require(std::isfinite(io.deadline_seconds) && io.deadline_seconds >= 0.0,
          "io.deadline_seconds (<io> deadline) must be finite and >= 0 "
          "(0 disables)");
  if (tiering.has_value()) {
    require(finite_positive(tiering->half_life_seconds),
            "tiering.half_life_seconds (<tiering> half-life) must be finite "
            "and > 0");
    require(std::isfinite(tiering->promote_threshold) &&
                tiering->promote_threshold >= 0.0,
            "tiering.promote_threshold (<tiering> promote-above) must be "
            "finite and >= 0");
    require(std::isfinite(tiering->demote_threshold) &&
                tiering->demote_threshold >= 0.0 &&
                tiering->demote_threshold < tiering->promote_threshold,
            "tiering.demote_threshold (<tiering> demote-below) must be in "
            "[0, promote_threshold (<tiering> promote-above)) — an inverted "
            "hysteresis band would thrash");
    require(finite_positive(tiering->interval_seconds),
            "tiering.interval_seconds (<tiering> interval) must be finite and "
            "> 0");
    require(tiering->max_moves_per_tick >= 1,
            "tiering.max_moves_per_tick (<tiering> max-moves) must be >= 1");
    require(std::isfinite(tiering->reserve) && tiering->reserve >= 0.0 &&
                tiering->reserve < 1.0,
            "tiering.reserve (<tiering> reserve) must be in [0, 1)");
  }
}

Status Options::check() const {
  try {
    validate();
    return Status::success();
  } catch (...) {
    return status_from_current_exception(StatusCode::kInvalidArgument);
  }
}

}  // namespace canopus
