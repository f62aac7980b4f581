// Pipeline facade members that wire the query scheduler, the tier advisor
// and the serving fabric together.
//
// These are member functions of canopus::Pipeline, declared in
// core/pipeline.hpp but defined here: serve is the one module that already
// links serve, tiering and fabric, so core's own TUs never reference their
// symbols and the layering stays acyclic. Any binary calling these links
// canopus (the umbrella), which carries this TU.

#include "core/pipeline.hpp"
#include "serve/query_scheduler.hpp"
#include "tiering/tier_advisor.hpp"

namespace canopus {

namespace {

std::shared_ptr<tiering::TierAdvisor> make_advisor(
    const Options& options, storage::StorageHierarchy& hierarchy) {
  auto advisor = std::make_shared<tiering::TierAdvisor>(
      options.tiering.value_or(tiering::TieringConfig{}));
  advisor->watch(hierarchy);
  return advisor;
}

}  // namespace

void Pipeline::connect_locked() {
  if (advisor_ != nullptr) advisor_->attach_fabric(fabric_);
  if (scheduler_ != nullptr) {
    scheduler_->attach_fabric(fabric_);
    scheduler_->attach_tier_advisor(advisor_.get());
  }
}

Status Pipeline::attach_fabric(fabric::Fabric* fabric) {
  std::scoped_lock lock(wiring_mu_);
  fabric_ = fabric;
  connect_locked();
  return Status::success();
}

tiering::TierAdvisor& Pipeline::tier_advisor() {
  std::scoped_lock lock(wiring_mu_);
  if (advisor_ == nullptr) {
    advisor_ = make_advisor(options_, *hierarchy_);
    connect_locked();
    if (advisor_->config().enabled) advisor_->start();
  }
  return *advisor_;
}

tiering::TieringReport Pipeline::tiering_report() {
  return tier_advisor().report();
}

serve::QueryScheduler& Pipeline::query_scheduler() {
  std::scoped_lock lock(wiring_mu_);
  if (scheduler_ == nullptr) {
    // With tiering enabled the advisor must exist before the first query, or
    // no heat is recorded and the placement loop never closes.
    const bool start_advisor = advisor_ == nullptr &&
                               options_.tiering.has_value() &&
                               options_.tiering->enabled;
    if (start_advisor) advisor_ = make_advisor(options_, *hierarchy_);
    scheduler_ = std::make_shared<serve::QueryScheduler>(
        *hierarchy_, options_.serve.value_or(serve::ServeConfig{}),
        options_.parallel,
        session_pool_.has_value() ? &*session_pool_ : nullptr);
    connect_locked();
    if (start_advisor) advisor_->start();
  }
  return *scheduler_;
}

Status Pipeline::submit_query(const serve::QueryRequest& request,
                              serve::QueryResult* result) {
  if (result == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "submit_query: result must not be null");
  }
  return query_scheduler().execute(request, result);
}

}  // namespace canopus
