// Tests for the deadline-aware query scheduler (src/serve): admission
// control and bounded queuing, cost-model planning, elastic degradation
// under tight deadlines, priority aging, and the bitwise identity between a
// served field and an unscheduled read at the same achieved level.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/canopus.hpp"
#include "core/geometry_cache.hpp"
#include "core/pipeline.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "serve/cost_model.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace cv = canopus::serve;

using canopus::Status;
using canopus::StatusCode;

namespace {

cm::Field smooth_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

cs::StorageHierarchy three_tiers() {
  return cs::StorageHierarchy({cs::tmpfs_spec(64 << 20), cs::ssd_spec(128 << 20),
                               cs::lustre_spec(1 << 30)});
}

cc::RefactorConfig refactor_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 4;
  return config;
}

/// A written dataset plus the hierarchy it lives in.
struct Dataset {
  cs::StorageHierarchy tiers = three_tiers();
  cm::TriMesh mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);

  Dataset() {
    cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                           refactor_config());
  }
};

cv::QueryRequest query(std::string var = "v") {
  cv::QueryRequest request;
  request.path = "d.bp";
  request.var = std::move(var);
  return request;
}

}  // namespace

// ---------------------------------------------------------- basic serving --

TEST(QueryScheduler, GenerousDeadlineReachesTargetBitwise) {
  Dataset data;
  cv::QueryScheduler scheduler(data.tiers, {}, {});

  cv::QueryRequest request = query();
  request.target_level = 0;
  request.deadline_seconds = 1e9;  // effectively unbounded
  cv::QueryResult result;
  const Status status = scheduler.execute(request, &result);
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(result.achieved_level, 0u);
  EXPECT_EQ(result.planned_level, 0u);
  EXPECT_EQ(result.target_level, 0u);
  EXPECT_GT(result.timings.bytes_read, 0u);
  EXPECT_GT(result.dispatch_order, 0u);

  // The scheduler decides how far to refine, never how: the served field is
  // bitwise-identical to an unscheduled facade read at the same level.
  canopus::Pipeline pipeline(data.tiers);
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";
  rreq.target_level = 0;
  canopus::ReadResult reference;
  ASSERT_TRUE(pipeline.read(rreq, &reference).ok());
  ASSERT_EQ(result.values.size(), reference.values.size());
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    ASSERT_EQ(result.values[i], reference.values[i]) << "vertex " << i;
  }

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(QueryScheduler, TightDeadlineDegradesToCoarserLevelBitwise) {
  Dataset data;
  // Probe the open's charge (no GeometryCache: the geometry reads count) and
  // the first step's price, both on the budget's clock.
  double open_charge = 0.0;
  double first_step = 0.0;
  std::uint32_t coarsest = 0;
  {
    cc::ProgressiveReader probe(data.tiers, "d.bp", "v");
    open_charge = cv::CostModel::charged(probe);
    coarsest = probe.current_level();
    const auto model = cv::CostModel::build(data.tiers, probe);
    first_step = model.step(coarsest - 1).total();
  }
  ASSERT_GT(first_step, 0.0);

  // 1 us short of the first step serves the base; 1 us past it buys exactly
  // that step. Both fall short of the target, so both answer degraded.
  cv::QueryScheduler scheduler(data.tiers, {}, {});
  for (const double margin : {-1e-6, 1e-6}) {
    const std::uint32_t expected = margin < 0 ? coarsest : coarsest - 1;
    cv::QueryRequest request = query();
    request.target_level = 0;
    request.deadline_seconds = open_charge + first_step + margin;
    cv::QueryResult result;
    const Status status = scheduler.execute(request, &result);

    EXPECT_EQ(status.code, StatusCode::kDegraded) << margin;
    EXPECT_TRUE(status.degraded);
    EXPECT_TRUE(status.usable());
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(status.detail.empty());
    EXPECT_EQ(result.achieved_level, expected) << margin;
    EXPECT_EQ(result.achieved_level, result.planned_level);
    EXPECT_LE(result.charged_seconds, *request.deadline_seconds);

    // Elastic degradation serves the exact field of that coarser level.
    canopus::Pipeline pipeline(data.tiers);
    canopus::ReadRequest rreq;
    rreq.path = "d.bp";
    rreq.var = "v";
    rreq.target_level = result.achieved_level;
    canopus::ReadResult reference;
    ASSERT_TRUE(pipeline.read(rreq, &reference).ok());
    ASSERT_EQ(reference.level, result.achieved_level);
    ASSERT_EQ(result.values.size(), reference.values.size());
    for (std::size_t i = 0; i < result.values.size(); ++i) {
      ASSERT_EQ(result.values[i], reference.values[i]) << "vertex " << i;
    }
  }

  EXPECT_EQ(scheduler.stats().degraded, 2u);
  EXPECT_EQ(scheduler.stats().completed, 2u);
}

TEST(QueryScheduler, RmseThresholdStopsEarly) {
  Dataset data;
  cv::QueryScheduler scheduler(data.tiers, {}, {});

  cv::QueryRequest request = query();
  request.rmse_threshold = 1e9;  // any refinement satisfies it
  request.deadline_seconds = 1e9;
  cv::QueryResult result;
  const Status status = scheduler.execute(request, &result);
  ASSERT_TRUE(status.ok()) << status.to_string();
  // One step ran (the stop criterion needs an observed delta), then the RMS
  // beat the threshold well above full accuracy.
  EXPECT_EQ(result.achieved_level, 1u);
  EXPECT_GT(result.delta_rms, 0.0);
  EXPECT_LT(result.delta_rms, 1e9);
}

// ------------------------------------------------------ admission control --

TEST(QueryScheduler, BoundedQueueShedsWithOverloaded) {
  Dataset data;
  cv::ServeConfig config;
  config.workers = 1;
  config.queue_limit = 2;
  config.default_deadline_seconds = 1e9;
  cv::QueryScheduler scheduler(data.tiers, config, {});

  // Deterministic overload: gate dispatch, fill the queue past its bound.
  scheduler.pause();
  std::vector<std::future<cv::QueryOutcome>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(scheduler.submit(query()));

  EXPECT_EQ(scheduler.queue_depth(), 2u);
  int shed = 0;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const cv::QueryOutcome outcome = f.get();
      EXPECT_EQ(outcome.status.code, StatusCode::kOverloaded);
      EXPECT_FALSE(outcome.status.ok());
      EXPECT_FALSE(outcome.status.usable());
      EXPECT_FALSE(outcome.status.detail.empty());
      ++shed;
      f = {};
    }
  }
  EXPECT_EQ(shed, 3);  // everything past queue_limit bounced immediately

  scheduler.resume();
  int completed = 0;
  for (auto& f : futures) {
    if (!f.valid()) continue;
    const cv::QueryOutcome outcome = f.get();
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.to_string();
    ++completed;
  }
  EXPECT_EQ(completed, 2);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
}

TEST(QueryScheduler, ShutdownShedsQueuedQueries) {
  Dataset data;
  std::future<cv::QueryOutcome> pending;
  {
    cv::ServeConfig config;
    config.workers = 1;
    cv::QueryScheduler scheduler(data.tiers, config, {});
    scheduler.pause();
    pending = scheduler.submit(query());
    EXPECT_EQ(scheduler.queue_depth(), 1u);
  }  // destructor: still-paused queue is shed, not silently dropped
  const cv::QueryOutcome outcome = pending.get();
  EXPECT_EQ(outcome.status.code, StatusCode::kOverloaded);
}

TEST(QueryScheduler, HigherPriorityJumpsTheQueue) {
  Dataset data;
  cv::ServeConfig config;
  config.workers = 1;
  config.queue_limit = 8;
  config.default_deadline_seconds = 1e9;
  config.age_boost = 0.0;  // pure priority order, no aging noise
  cv::QueryScheduler scheduler(data.tiers, config, {});

  scheduler.pause();
  cv::QueryRequest low = query();
  low.priority = 0;
  cv::QueryRequest high = query();
  high.priority = 10;
  auto low_future = scheduler.submit(low);    // enqueued first...
  auto high_future = scheduler.submit(high);  // ...but less urgent
  scheduler.resume();

  const cv::QueryOutcome low_outcome = low_future.get();
  const cv::QueryOutcome high_outcome = high_future.get();
  ASSERT_TRUE(low_outcome.status.usable());
  ASSERT_TRUE(high_outcome.status.usable());
  EXPECT_LT(high_outcome.result.dispatch_order,
            low_outcome.result.dispatch_order);
}

TEST(QueryScheduler, EffectivePriorityAges) {
  // Aging closes any fixed priority gap: a patient low-priority query
  // eventually outranks a fresh high-priority one.
  EXPECT_LT(cv::QueryScheduler::effective_priority(0, 0.0, 4.0),
            cv::QueryScheduler::effective_priority(10, 0.0, 4.0));
  EXPECT_GT(cv::QueryScheduler::effective_priority(0, 3.0, 4.0),
            cv::QueryScheduler::effective_priority(10, 0.0, 4.0));
  // age_boost 0 disables aging entirely.
  EXPECT_EQ(cv::QueryScheduler::effective_priority(5, 100.0, 0.0), 5.0);
}

// ------------------------------------------------------------- validation --

TEST(QueryScheduler, MalformedRequestsAreRejectedUpFront) {
  Dataset data;
  cv::QueryScheduler scheduler(data.tiers, {}, {});

  cv::QueryRequest no_var = query("");
  EXPECT_EQ(scheduler.execute(no_var, nullptr).code,
            StatusCode::kInvalidArgument);

  cv::QueryRequest nan_rmse = query();
  nan_rmse.rmse_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(scheduler.execute(nan_rmse, nullptr).code,
            StatusCode::kInvalidArgument);

  cv::QueryRequest bad_deadline = query();
  bad_deadline.deadline_seconds = -1.0;
  EXPECT_EQ(scheduler.execute(bad_deadline, nullptr).code,
            StatusCode::kInvalidArgument);

  // A rejected request never consumed queue capacity.
  EXPECT_EQ(scheduler.stats().admitted, 0u);
  EXPECT_EQ(scheduler.stats().submitted, 0u);
}

TEST(QueryScheduler, MissingVariableFailsAsNotFound) {
  Dataset data;
  cv::QueryScheduler scheduler(data.tiers, {}, {});
  cv::QueryResult result;
  const Status status = scheduler.execute(query("nope"), &result);
  EXPECT_EQ(status.code, StatusCode::kNotFound);
  EXPECT_FALSE(status.usable());
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

// -------------------------------------------------------------- cost model --

TEST(CostModel, StepsCoverEveryRefinableLevel) {
  Dataset data;
  cc::ProgressiveReader reader(data.tiers, "d.bp", "v");
  const auto model = cv::CostModel::build(data.tiers, reader);

  ASSERT_EQ(model.steps().size(), reader.level_count() - 1);
  for (const auto& step : model.steps()) {
    EXPECT_GT(step.io_seconds, 0.0) << "level " << step.level;
    EXPECT_GT(step.compute_seconds, 0.0) << "level " << step.level;
    EXPECT_GT(step.bytes, 0u) << "level " << step.level;
    EXPECT_EQ(step.cached_blocks, 0u) << "level " << step.level;
  }

  const auto coarsest = static_cast<std::uint32_t>(reader.level_count() - 1);
  EXPECT_GT(model.cost_between(coarsest, 0), 0.0);
  EXPECT_GE(model.cost_between(coarsest, 0), model.cost_between(coarsest, 1));
  EXPECT_EQ(model.cost_between(0, coarsest), 0.0);  // already finer

  // Budget bounds: zero budget refines nothing; an unbounded budget reaches
  // the floor, never beyond it.
  EXPECT_EQ(model.reachable_level(coarsest, 0.0, 0), coarsest);
  EXPECT_EQ(model.reachable_level(coarsest, 1e9, 0), 0u);
  EXPECT_EQ(model.reachable_level(coarsest, 1e9, 1), 1u);
  // Exactly one step's budget buys exactly one level.
  const double one_step = model.step(coarsest - 1).total();
  EXPECT_EQ(model.reachable_level(coarsest, one_step, 0), coarsest - 1);
}

TEST(CostModel, CacheResidencyWaivesEstimatedIo) {
  Dataset data;
  canopus::Options options;
  canopus::cache::CacheConfig cache_config;
  cache_config.budget_bytes = 32ull << 20;
  options.cache = cache_config;
  canopus::Pipeline pipeline(data.tiers, options);

  const auto geometry = cc::GeometryCache::load(data.tiers, "d.bp", "v");
  cc::ProgressiveReader cold(data.tiers, "d.bp", "v", &geometry);
  const auto before = cv::CostModel::build(data.tiers, cold);

  // Warm every delta block through the facade, then re-plan.
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";
  rreq.target_level = 0;
  canopus::ReadResult full;
  ASSERT_TRUE(pipeline.read(rreq, &full).ok());

  cc::ProgressiveReader warm(data.tiers, "d.bp", "v", &geometry);
  const auto after = cv::CostModel::build(data.tiers, warm);
  ASSERT_EQ(before.steps().size(), after.steps().size());
  for (std::size_t l = 0; l < after.steps().size(); ++l) {
    EXPECT_GT(before.steps()[l].io_seconds, 0.0) << "level " << l;
    EXPECT_EQ(after.steps()[l].io_seconds, 0.0) << "level " << l;
    EXPECT_GT(after.steps()[l].cached_blocks, 0u) << "level " << l;
  }
}

TEST(CostModel, CachedDecodedArrayStillChargesTheBlobFetch) {
  // The reader fetches a chunk's blob even when its decoded array is cached,
  // so only a resident blob makes the chunk's I/O free. Under LRU pressure
  // the blobs go first: decoding touches an array after the fetch touched
  // its blob.
  Dataset data;
  auto cache = std::make_shared<canopus::cache::BlockCache>(
      canopus::cache::CacheConfig{});
  data.tiers.attach_block_cache(cache);
  const auto geometry = cc::GeometryCache::load(data.tiers, "d.bp", "v");
  std::size_t invalidated = 0;
  {
    cc::ProgressiveReader warm(data.tiers, "d.bp", "v", &geometry);
    warm.refine_to(0);
    for (const auto& b : warm.var_info().blocks) {
      if (b.kind == canopus::adios::BlockKind::kDelta && b.level == 0) {
        cache->invalidate(b.object_key);
        ++invalidated;
      }
    }
  }
  ASSERT_EQ(invalidated, refactor_config().delta_chunks);

  cc::ProgressiveReader reader(data.tiers, "d.bp", "v", &geometry);
  const auto model = cv::CostModel::build(data.tiers, reader);
  const auto level1 = reader.refine();
  const auto level0 = reader.refine();
  ASSERT_EQ(reader.current_level(), 0u);
  EXPECT_EQ(level1.io_seconds, 0.0);
  EXPECT_EQ(model.step(1).io_seconds, 0.0);
  EXPECT_GT(level0.io_seconds, 0.0);
  EXPECT_DOUBLE_EQ(model.step(0).io_seconds, level0.io_seconds);
  EXPECT_EQ(model.step(0).cached_blocks, 0u);
}

// Observability records what happened and never steers a plan: one seeded
// query sequence against a lustre tier with latency spikes must plan, reach
// and serve the same levels, bit for bit, with tracing off and on. Each
// deadline sits 1 us to either side of a step boundary on the budget's
// clock, so a plan that priced any step from the observed latencies would
// move.
TEST(CostModel, ObservabilityNeverSteersPlans) {
  Dataset data;
  cs::StorageHierarchy& tiers = data.tiers;
  // Preloaded geometry keeps the L0 mesh's lustre read out of every open, so
  // the spikes land on delta reads only.
  const auto geometry = cc::GeometryCache::load(tiers, "d.bp", "v");
  double open_charge = 0.0;
  double ssd_step = 0.0;
  double lustre_step = 0.0;
  {
    cc::ProgressiveReader probe(tiers, "d.bp", "v", &geometry);
    open_charge = cv::CostModel::charged(probe);
    const auto model = cv::CostModel::build(tiers, probe);
    ASSERT_EQ(probe.current_level(), 2u);
    ssd_step = model.step(1).total();
    lustre_step = model.step(0).total();
  }

  struct Served {
    std::uint32_t planned = 0;
    std::uint32_t achieved = 0;
    cm::Field values;
  };
  cv::QueryRequest to_full = query();
  to_full.target_level = 0;
  to_full.geometry = &geometry;
  const auto run = [&](bool observe) {
    canopus::obs::MetricsRegistry::global().reset();
    canopus::obs::set_enabled(observe);
    auto faults = std::make_shared<cs::FaultInjector>(17);
    cs::FaultProfile spikes;
    spikes.latency_spike = 0.3;
    spikes.spike_seconds = 1.0;
    faults->set_profile(2, spikes);  // lustre holds the finest delta
    tiers.attach_fault_injector(faults);
    cv::QueryScheduler scheduler(tiers, {}, {});
    canopus::util::Rng rng(23);
    std::vector<Served> served;
    for (int q = 0; q < 30; ++q) {
      cv::QueryRequest request = to_full;
      // The boundary after the ssd step or after both steps, 1 us short of
      // it or 1 us past it.
      const double boundary =
          open_charge + ssd_step +
          (rng.uniform_index(2) == 0 ? 0.0 : lustre_step);
      request.deadline_seconds =
          boundary + (rng.uniform_index(2) == 0 ? -1e-6 : 1e-6);
      cv::QueryResult result;
      EXPECT_TRUE(scheduler.execute(request, &result).usable()) << q;
      served.push_back({result.planned_level, result.achieved_level,
                        std::move(result.values)});
    }
    tiers.attach_fault_injector(nullptr);
    canopus::obs::set_enabled(false);
    return served;
  };

  const auto quiet = run(false);
  const auto traced = run(true);
  ASSERT_EQ(quiet.size(), traced.size());
  std::set<std::uint32_t> levels;
  for (std::size_t q = 0; q < quiet.size(); ++q) {
    EXPECT_EQ(traced[q].planned, quiet[q].planned) << "query " << q;
    EXPECT_EQ(traced[q].achieved, quiet[q].achieved) << "query " << q;
    EXPECT_EQ(traced[q].values, quiet[q].values) << "query " << q;
    EXPECT_EQ(quiet[q].achieved, quiet[q].planned) << "query " << q;
    levels.insert(quiet[q].achieved);
  }
  // The sequence exercises every outcome: the base, stopped after the ssd
  // step, and refined through the spiking lustre step.
  EXPECT_EQ(levels, (std::set<std::uint32_t>{0, 1, 2}));
}

// The serve gate: a plan reads one clock. 64 seeded queries whose deadlines
// sit 1 us to either side of a level boundary on the budget's clock get the
// same planned level, achieved level and charge, bit for bit, at 1 and 4
// workers with observability off and on; each reaches the level the cost
// model alone predicts and stays inside its deadline.
TEST(QueryScheduler, PlansReadOneClockAtAnyWorkerCount) {
  Dataset data;
  const auto geometry = cc::GeometryCache::load(data.tiers, "d.bp", "v");
  // charge[k]: what a probe reader has been charged standing at level
  // coarsest - k.
  std::vector<double> charge;
  std::uint32_t coarsest = 0;
  cv::CostModel model;
  {
    cc::ProgressiveReader probe(data.tiers, "d.bp", "v", &geometry);
    coarsest = probe.current_level();
    model = cv::CostModel::build(data.tiers, probe);
    charge.push_back(cv::CostModel::charged(probe));
    while (!probe.at_full_accuracy()) {
      probe.refine();
      charge.push_back(cv::CostModel::charged(probe));
    }
  }
  ASSERT_EQ(charge.size(), coarsest + 1u);

  const std::uint64_t seed = canopus::test::test_seed();
  SCOPED_TRACE("CANOPUS_TEST_SEED=" + std::to_string(seed));
  canopus::util::Rng rng(seed + 41);
  std::vector<double> deadlines;
  std::vector<std::uint32_t> expected;
  for (int q = 0; q < 64; ++q) {
    // 1 us past the open, or 1 us to either side of a later boundary (1 us
    // short of the open would leave even the base over budget).
    const auto k = rng.uniform_index(charge.size());
    const double margin =
        k == 0 || rng.uniform_index(2) == 0 ? 1e-6 : -1e-6;
    deadlines.push_back(charge[k] + margin);
    expected.push_back(
        model.reachable_level(coarsest, deadlines.back() - charge[0], 0));
    EXPECT_EQ(expected.back(), margin > 0 ? coarsest - k : coarsest - k + 1)
        << "query " << q;
  }

  struct Served {
    std::uint32_t planned = 0;
    std::uint32_t achieved = 0;
    double charged = 0.0;
  };
  const auto run = [&](std::size_t workers, bool observe) {
    canopus::obs::MetricsRegistry::global().reset();
    canopus::obs::set_enabled(observe);
    cv::ServeConfig config;
    config.workers = workers;
    config.queue_limit = deadlines.size();
    cv::QueryScheduler scheduler(data.tiers, config, {});
    scheduler.pause();  // every query queued before the first dispatch
    std::vector<std::future<cv::QueryOutcome>> futures;
    for (const double deadline : deadlines) {
      cv::QueryRequest request = query();
      request.target_level = 0;
      request.deadline_seconds = deadline;
      request.geometry = &geometry;
      futures.push_back(scheduler.submit(request));
    }
    scheduler.resume();
    std::vector<Served> served;
    for (auto& f : futures) {
      const cv::QueryOutcome outcome = f.get();
      EXPECT_TRUE(outcome.status.usable()) << outcome.status.to_string();
      served.push_back({outcome.result.planned_level,
                        outcome.result.achieved_level,
                        outcome.result.charged_seconds});
    }
    canopus::obs::set_enabled(false);
    return served;
  };

  const auto reference = run(1, false);
  for (std::size_t q = 0; q < reference.size(); ++q) {
    EXPECT_EQ(reference[q].planned, expected[q]) << "query " << q;
    EXPECT_EQ(reference[q].achieved, reference[q].planned) << "query " << q;
    EXPECT_LE(reference[q].charged, deadlines[q]) << "query " << q;
  }
  for (const auto& [workers, observe] :
       {std::pair<std::size_t, bool>{1, true}, {4, false}, {4, true}}) {
    const auto served = run(workers, observe);
    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t q = 0; q < served.size(); ++q) {
      EXPECT_EQ(served[q].planned, reference[q].planned)
          << workers << " workers, observe " << observe << ", query " << q;
      EXPECT_EQ(served[q].achieved, reference[q].achieved)
          << workers << " workers, observe " << observe << ", query " << q;
      EXPECT_EQ(std::memcmp(&served[q].charged, &reference[q].charged,
                            sizeof(double)),
                0)
          << workers << " workers, observe " << observe << ", query " << q;
    }
  }
}

// ------------------------------------------------------------ concurrency --

TEST(QueryScheduler, ConcurrentClientsAllResolve) {
  Dataset data;
  cv::ServeConfig config;
  config.workers = 2;
  config.queue_limit = 4;
  config.default_deadline_seconds = 1e9;
  cv::QueryScheduler scheduler(data.tiers, config, {});

  const int kClients = 6;
  const int kQueriesEach = 4;
  std::vector<std::thread> clients;
  std::atomic<int> usable{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> unexpected{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < kQueriesEach; ++q) {
        const cv::QueryOutcome outcome = scheduler.submit(query()).get();
        if (outcome.status.usable()) {
          usable.fetch_add(1);
        } else if (outcome.status.code == StatusCode::kOverloaded) {
          overloaded.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(usable.load() + overloaded.load(), kClients * kQueriesEach);
  EXPECT_GT(usable.load(), 0);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kClients * kQueriesEach));
  EXPECT_EQ(stats.admitted + stats.shed, stats.submitted);
  EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
  EXPECT_LE(stats.max_queue_depth, config.queue_limit);
  EXPECT_EQ(stats.failed, 0u);
}

// ----------------------------------------------------------------- facade --

TEST(PipelineServe, SubmitQueryRoundTrip) {
  Dataset data;
  canopus::Options options;
  cv::ServeConfig serve;
  serve.workers = 2;
  serve.queue_limit = 16;
  serve.default_deadline_seconds = 1e9;
  options.serve = serve;
  canopus::Pipeline pipeline(data.tiers, options);

  cv::QueryRequest request = query();
  request.target_level = 1;
  cv::QueryResult result;
  const Status status = pipeline.submit_query(request, &result);
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(result.achieved_level, 1u);
  EXPECT_EQ(pipeline.query_scheduler().config().queue_limit, 16u);
  EXPECT_EQ(pipeline.query_scheduler().stats().completed, 1u);

  EXPECT_EQ(pipeline.submit_query(request, nullptr).code,
            StatusCode::kInvalidArgument);
}

TEST(PipelineServe, OverloadedStatusStringAndNonFiniteReadThreshold) {
  EXPECT_EQ(canopus::to_string(StatusCode::kOverloaded), "overloaded");

  Dataset data;
  canopus::Pipeline pipeline(data.tiers);
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";
  rreq.rmse_threshold = std::numeric_limits<double>::infinity();
  canopus::ReadResult result;
  EXPECT_EQ(pipeline.read(rreq, &result).code, StatusCode::kInvalidArgument);
}
