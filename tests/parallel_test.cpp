// Tests for the task engine (util::ThreadPool) and for the concurrency
// contract of the refactor/restore pipeline: stress, exception propagation,
// ordered-reduce sequencing, and the bitwise 1-thread-vs-N-thread identity of
// both the stored refactor products and the restored fields.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/canopus.hpp"
#include "core/geometry_cache.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/hierarchy.hpp"
#include "tiering/tier_advisor.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ca = canopus::adios;
namespace cu = canopus::util;

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

}  // namespace

// -------------------------------------------------------------- task pool --

TEST(ThreadPool, SubmitReturnsTypedResults) {
  cu::ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    futures.push_back(pool.submit([i] { return i * 2; }));
  }
  long total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, 2L * 2000 * 1999 / 2);
}

TEST(ThreadPool, StressSubmitFromManyThreads) {
  // The queue is shared: hammer it from several producer threads at once.
  cu::ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &sum] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 500; ++i) {
        futures.push_back(pool.submit([&sum] { sum.fetch_add(1); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum.load(), 4 * 500);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  cu::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  cu::ThreadPool pool(4);
  std::vector<int> hits(10'000, 0);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*grain=*/64);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPool, ParallelForHonorsGrain) {
  cu::ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 1000, [&](std::size_t, std::size_t) { chunks.fetch_add(1); },
      /*grain=*/400);
  // 1000 iterations at >= 400 per chunk cannot split more than 2 ways.
  EXPECT_LE(chunks.load(), 2);
  EXPECT_GE(chunks.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  cu::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [](std::size_t lo, std::size_t) {
                                   if (lo > 0) throw std::runtime_error("mid");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A worker blocking on its own pool would deadlock a 1-worker pool; the
  // re-entrancy guard must run the nested loop inline instead.
  cu::ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  auto f = pool.submit([&] {
    pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
  });
  f.get();
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, OrderedReduceFeedsAscendingIndices) {
  cu::ThreadPool pool(4);
  std::vector<std::size_t> seen;
  pool.ordered_reduce(
      500,
      [](std::size_t i) {
        // Stagger completion so out-of-order finishes are the common case.
        if (i % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return i * 3;
      },
      [&](std::size_t i, std::size_t result) {
        EXPECT_EQ(result, i * 3);
        seen.push_back(i);
      });
  ASSERT_EQ(seen.size(), 500u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ThreadPool, OrderedReduceBoundsInflightWindow) {
  cu::ThreadPool pool(2);
  std::atomic<int> inflight{0};
  std::atomic<int> peak{0};
  pool.ordered_reduce(
      64,
      [&](std::size_t i) {
        const int now = inflight.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        inflight.fetch_sub(1);
        return i;
      },
      [](std::size_t, std::size_t) {}, /*window=*/3);
  // No more than `window` maps may ever run or wait enqueued at once.
  EXPECT_LE(peak.load(), 3);
}

TEST(ThreadPool, OrderedReduceMapExceptionSurfacesAtItsIndex) {
  cu::ThreadPool pool(4);
  std::vector<std::size_t> reduced;
  EXPECT_THROW(pool.ordered_reduce(
                   200,
                   [](std::size_t i) -> std::size_t {
                     if (i == 123) throw std::runtime_error("map died");
                     return i;
                   },
                   [&](std::size_t i, std::size_t) { reduced.push_back(i); }),
               std::runtime_error);
  // Everything before the failing index was reduced, in order; nothing after.
  ASSERT_EQ(reduced.size(), 123u);
  for (std::size_t i = 0; i < reduced.size(); ++i) EXPECT_EQ(reduced[i], i);
  // The pool is still usable afterwards (all inflight maps were drained).
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// ----------------------------------------------------------- determinism --

namespace {

cc::RefactorConfig parallel_config(std::size_t threads) {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 4;
  config.parallel.threads = threads;
  return config;
}

/// Every stored object of `var`, keyed by its container index entry, read
/// back raw (still compressed) from the hierarchy.
std::map<std::string, cu::Bytes> stored_objects(cs::StorageHierarchy& tiers,
                                                const std::string& path,
                                                const std::string& var) {
  ca::BpReader reader(tiers, path);
  std::map<std::string, cu::Bytes> objects;
  for (const auto& record : reader.inq_var(var).blocks) {
    cu::Bytes bytes;
    tiers.read(record.object_key, bytes);
    objects[record.object_key] = std::move(bytes);
  }
  return objects;
}

}  // namespace

TEST(ParallelDeterminism, RefactorProductsBitwiseIdentical1VsN) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers1 = three_tiers();
  const auto report1 =
      cc::refactor_and_write(tiers1, "d.bp", "v", mesh, values,
                             parallel_config(1));
  auto tiersN = three_tiers();
  const auto reportN =
      cc::refactor_and_write(tiersN, "d.bp", "v", mesh, values,
                             parallel_config(4));

  // Same products, same sizes, same placement — chunk by chunk.
  ASSERT_EQ(report1.products.size(), reportN.products.size());
  for (std::size_t i = 0; i < report1.products.size(); ++i) {
    const auto& a = report1.products[i];
    const auto& b = reportN.products[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.raw_bytes, b.raw_bytes);
    EXPECT_EQ(a.stored_bytes, b.stored_bytes);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.chunk_tiers, b.chunk_tiers);
  }

  // Same bytes in the container, object by object, with the compute/commit
  // overlap on (4 workers) and off.
  auto config_serial_commit = parallel_config(4);
  config_serial_commit.parallel.pipeline = false;
  auto tiersS = three_tiers();
  cc::refactor_and_write(tiersS, "d.bp", "v", mesh, values, config_serial_commit);
  const auto objects1 = stored_objects(tiers1, "d.bp", "v");
  ASSERT_GT(objects1.size(), 0u);
  for (auto* other : {&tiersN, &tiersS}) {
    const auto objects = stored_objects(*other, "d.bp", "v");
    ASSERT_EQ(objects1.size(), objects.size());
    for (const auto& [key, bytes] : objects1) {
      const auto it = objects.find(key);
      ASSERT_NE(it, objects.end()) << key;
      EXPECT_EQ(bytes, it->second) << key;
    }
  }
}

TEST(ParallelDeterminism, RestoredFieldsBitwiseIdentical1VsN) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(4));

  cc::ReaderOptions serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  cc::ProgressiveReader reader1(tiers, "d.bp", "v", nullptr, serial);
  reader1.refine_to(0);

  cc::ReaderOptions parallel;
  parallel.parallel.threads = 4;
  cc::ProgressiveReader readerN(tiers, "d.bp", "v", nullptr, parallel);
  readerN.refine_to(0);

  ASSERT_EQ(reader1.values().size(), readerN.values().size());
  for (std::size_t i = 0; i < reader1.values().size(); ++i) {
    // Bitwise: the parallel restore must not even reassociate an addition.
    EXPECT_EQ(reader1.values()[i], readerN.values()[i]) << "vertex " << i;
  }
}

TEST(ParallelDeterminism, RestoredFieldsBitwiseIdenticalWithTracingOn) {
  // Observability must be a pure observer: spans and metrics read wall clocks
  // but never touch task ordering or the fault RNG, so the 1-vs-N bitwise
  // identity has to survive with recording enabled.
  canopus::obs::ObservabilityOptions oopt;
  oopt.enabled = true;
  canopus::obs::install(oopt);

  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers1 = three_tiers();
  cc::refactor_and_write(tiers1, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(1));
  auto tiersN = three_tiers();
  cc::refactor_and_write(tiersN, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(4));
  const auto objects1 = stored_objects(tiers1, "d.bp", "v");
  const auto objectsN = stored_objects(tiersN, "d.bp", "v");
  ASSERT_EQ(objects1.size(), objectsN.size());
  for (const auto& [key, bytes] : objects1) {
    const auto it = objectsN.find(key);
    ASSERT_NE(it, objectsN.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }

  cc::ReaderOptions serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  cc::ProgressiveReader reader1(tiers1, "d.bp", "v", nullptr, serial);
  reader1.refine_to(0);
  cc::ReaderOptions parallel;
  parallel.parallel.threads = 4;
  cc::ProgressiveReader readerN(tiersN, "d.bp", "v", nullptr, parallel);
  readerN.refine_to(0);
  ASSERT_EQ(reader1.values().size(), readerN.values().size());
  for (std::size_t i = 0; i < reader1.values().size(); ++i) {
    EXPECT_EQ(reader1.values()[i], readerN.values()[i]) << "vertex " << i;
  }

  // And the run actually recorded: the stages left spans behind.
  EXPECT_FALSE(canopus::obs::TraceRecorder::global().events().empty());
  canopus::obs::set_enabled(false);
}

TEST(ParallelDeterminism, ReadAheadKeepsSimulatedClock) {
  // Prefetched I/O is charged to the step that consumes it, so the simulated
  // retrieval clock must not notice the read-ahead at all.
  const auto mesh = cm::make_annulus_mesh(14, 90, 0.5, 1.0, 0.1, 5);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(0));
  double io_serial = 0.0;
  std::size_t bytes_serial = 0;
  {
    auto fresh = three_tiers();
    cc::refactor_and_write(fresh, "d.bp", "v", mesh, smooth_field(mesh),
                           parallel_config(0));
    cc::ReaderOptions serial;
    serial.parallel.threads = 1;
    serial.parallel.read_ahead = false;
    cc::ProgressiveReader reader(fresh, "d.bp", "v", nullptr, serial);
    reader.refine_to(0);
    io_serial = reader.cumulative().io_seconds;
    bytes_serial = reader.cumulative().bytes_read;
  }
  cc::ReaderOptions ahead;  // read_ahead defaults on
  ahead.parallel.threads = 4;
  cc::ProgressiveReader reader(tiers, "d.bp", "v", nullptr, ahead);
  reader.refine_to(0);
  EXPECT_DOUBLE_EQ(reader.cumulative().io_seconds, io_serial);
  EXPECT_EQ(reader.cumulative().bytes_read, bytes_serial);
}

TEST(ParallelDeterminism, GeometryCachePathMatchesOnDemandPath) {
  // The cached spatial orders and mappings must restore the exact same field
  // as the read-on-demand path.
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.1, 13);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(0));
  const auto cache = cc::GeometryCache::load(tiers, "d.bp", "v");

  cc::ProgressiveReader plain(tiers, "d.bp", "v");
  plain.refine_to(0);
  cc::ReaderOptions opts;
  opts.parallel.threads = 4;
  cc::ProgressiveReader cached(tiers, "d.bp", "v", &cache, opts);
  cached.refine_to(0);

  ASSERT_EQ(plain.values().size(), cached.values().size());
  for (std::size_t i = 0; i < plain.values().size(); ++i) {
    EXPECT_EQ(plain.values()[i], cached.values()[i]) << "vertex " << i;
  }
}

// ------------------------------------------- concurrent read sessions --

// K concurrent sessions x N shared pool threads, with the block cache off
// and then on, all restore the exact bytes of the serial uncached reader.
// This extends the 1-vs-N contract to many clients: the cache and its
// single-flight sharing may change who fetches and decodes, never what any
// session sees.
TEST(ParallelDeterminism, ConcurrentSessionsBitwiseIdenticalCacheOnOff) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(4));

  cc::ReaderOptions serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  cc::ProgressiveReader reference(tiers, "d.bp", "v", nullptr, serial);
  reference.refine_to(0);

  // Cache-off first: attaching the cache (second pass) is sticky on `tiers`.
  for (const bool cached : {false, true}) {
    canopus::Options options;
    options.parallel.threads = 4;
    if (cached) {
      canopus::cache::CacheConfig cache_config;
      cache_config.budget_bytes = 32ull << 20;
      cache_config.shards = 4;
      options.cache = cache_config;
    }
    canopus::Pipeline pipeline(tiers, options);

    const std::size_t kSessions = 6;
    std::vector<cm::Field> fields(kSessions);
    std::vector<canopus::Status> statuses(kSessions);
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        canopus::ReadRequest request;
        request.path = "d.bp";
        request.var = "v";
        std::unique_ptr<canopus::ReadSession> session;
        canopus::Status status = pipeline.open_session(request, &session);
        if (status.ok()) status = session->refine_to(0);
        statuses[s] = status;
        if (session) fields[s] = session->values();
      });
    }
    for (auto& c : clients) c.join();

    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(statuses[s].ok())
          << "session " << s << " (cache " << (cached ? "on" : "off")
          << "): " << statuses[s].to_string();
      ASSERT_EQ(fields[s].size(), reference.values().size());
      for (std::size_t i = 0; i < fields[s].size(); ++i) {
        ASSERT_EQ(fields[s][i], reference.values()[i])
            << "session " << s << " vertex " << i << " cache "
            << (cached ? "on" : "off");
      }
    }

    if (cached) {
      // Sharing must actually have happened: the sessions together fetched
      // each block far fewer times than 6 sessions x blocks.
      ASSERT_NE(pipeline.block_cache(), nullptr);
      const auto stats = pipeline.block_cache()->stats();
      EXPECT_GT(stats.hits + stats.single_flight_waits, 0u);
    } else {
      EXPECT_EQ(pipeline.block_cache(), nullptr);
    }
  }
}

// ---------------------------------------------- scheduler determinism --

// Serving through the deadline scheduler must be invisible in the bytes: a
// query with an ample budget restores the exact field of a direct read. The
// scheduler decides how far to refine, never how.
TEST(ParallelDeterminism, ScheduledQueryBitwiseMatchesDirectRead) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         parallel_config(4));

  cc::ReaderOptions serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  cc::ProgressiveReader direct(tiers, "d.bp", "v", nullptr, serial);
  direct.refine_to(0);

  canopus::Options options;
  options.parallel.threads = 4;
  canopus::serve::ServeConfig serve;
  serve.workers = 2;
  serve.default_deadline_seconds = 1e9;
  options.serve = serve;
  canopus::Pipeline pipeline(tiers, options);

  canopus::serve::QueryRequest request;
  request.path = "d.bp";
  request.var = "v";
  request.target_level = 0;
  canopus::serve::QueryResult result;
  const canopus::Status status = pipeline.submit_query(request, &result);
  ASSERT_TRUE(status.ok()) << status.to_string();
  ASSERT_EQ(result.achieved_level, 0u);
  ASSERT_EQ(result.values.size(), direct.values().size());
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    ASSERT_EQ(result.values[i], direct.values()[i]) << "vertex " << i;
  }
}

// ------------------------------------------------ fabric determinism --

// Sharding the products across a simulated cluster must be invisible in the
// bytes: a full-accuracy read against any node of an N-node fabric (remote
// chunks resolved through the directory) restores the exact field of the
// 1-node fabric, which in turn matches a plain single-hierarchy read.
TEST(ParallelDeterminism, OneNodeVsFourNodeFabricBitwiseIdentical) {
  namespace cf = canopus::fabric;
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  auto config = parallel_config(4);
  config.delta_chunks = 8;
  cc::refactor_and_write(staging, "d.bp", "v", mesh, smooth_field(mesh), config);

  cc::ReaderOptions serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  cc::ProgressiveReader reference(staging, "d.bp", "v", nullptr, serial);
  reference.refine_to(0);

  for (const std::size_t nodes : {std::size_t{1}, std::size_t{4}}) {
    cf::FabricOptions fo;
    fo.nodes = nodes;
    cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
    fabric.import_container(staging, "d.bp");
    for (std::size_t home = 0; home < nodes; ++home) {
      cc::ReaderOptions opts;
      opts.parallel.threads = 4;
      cc::ProgressiveReader reader(fabric.node(home), "d.bp", "v", nullptr,
                                   opts);
      reader.refine_to(0);
      ASSERT_EQ(reader.values().size(), reference.values().size());
      for (std::size_t i = 0; i < reader.values().size(); ++i) {
        ASSERT_EQ(reader.values()[i], reference.values()[i])
            << "nodes=" << nodes << " home=" << home << " vertex " << i;
      }
    }
    if (nodes > 1) {
      // The identity was not vacuous: some chunks really crossed the wire.
      EXPECT_GT(fabric.stats().remote_reads, 0u);
    }
  }
}

// Scheduler-routed fabric dispatch is equally invisible: a query submitted
// to a scheduler with an attached fabric (shard picked by directory
// affinity, remote chunks through the envelope) returns the same bytes as
// the same scheduler without the fabric, and as a direct read.
TEST(ParallelDeterminism, SchedulerFabricOnOffBitwiseIdentical) {
  namespace cf = canopus::fabric;
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  auto config = parallel_config(4);
  config.delta_chunks = 8;
  cc::refactor_and_write(staging, "d.bp", "v", mesh, smooth_field(mesh), config);

  cf::FabricOptions fo;
  fo.nodes = 4;
  cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  fabric.import_container(staging, "d.bp");

  canopus::serve::ServeConfig serve;
  serve.default_deadline_seconds = 1e9;
  canopus::serve::QueryScheduler scheduler(staging, serve, {});

  canopus::serve::QueryRequest request;
  request.path = "d.bp";
  request.var = "v";
  request.target_level = 0;

  canopus::serve::QueryResult off;
  ASSERT_TRUE(scheduler.execute(request, &off).ok());

  scheduler.attach_fabric(&fabric);
  canopus::serve::QueryResult on;
  const canopus::Status status = scheduler.execute(request, &on);
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_GT(fabric.stats().local_hits, 0u);

  ASSERT_EQ(on.achieved_level, off.achieved_level);
  ASSERT_EQ(on.values.size(), off.values.size());
  for (std::size_t i = 0; i < on.values.size(); ++i) {
    ASSERT_EQ(on.values[i], off.values[i]) << "vertex " << i;
  }

  // Detach restores the constructor hierarchy for subsequent queries.
  scheduler.attach_fabric(nullptr);
  canopus::serve::QueryResult again;
  ASSERT_TRUE(scheduler.execute(request, &again).ok());
  ASSERT_EQ(again.values.size(), off.values.size());
  for (std::size_t i = 0; i < again.values.size(); ++i) {
    ASSERT_EQ(again.values[i], off.values[i]) << "vertex " << i;
  }
}

// ------------------------------------------------- async I/O determinism --

namespace {

/// Refactor config with enough delta chunks per level that the async ring
/// actually has parallelism to exploit.
cc::RefactorConfig chunked_config(std::size_t threads) {
  auto config = parallel_config(threads);
  config.delta_chunks = 8;
  return config;
}

}  // namespace

// Io depth changes how reads are charged, never what they produce: a deeper
// reader (with and without read-ahead) must restore the exact bytes of the
// blocking depth-1 reader.
TEST(ParallelDeterminism, AsyncRingRestoreBitwiseIdenticalToBlocking) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config(0));

  cc::ReaderOptions blocking;
  blocking.parallel.threads = 1;
  blocking.parallel.read_ahead = false;
  cc::ProgressiveReader serial(tiers, "d.bp", "v", nullptr, blocking);
  serial.refine_to(0);

  cc::ReaderOptions async_sync;  // overlapped charge, no prefetch
  async_sync.parallel.threads = 4;
  async_sync.parallel.read_ahead = false;
  async_sync.io.depth = 8;
  cc::ProgressiveReader ring(tiers, "d.bp", "v", nullptr, async_sync);
  ring.refine_to(0);

  cc::ReaderOptions async_ahead;  // overlapped charge plus read-ahead
  async_ahead.parallel.threads = 4;
  async_ahead.io.depth = 4;
  cc::ProgressiveReader ahead(tiers, "d.bp", "v", nullptr, async_ahead);
  ahead.refine_to(0);

  ASSERT_EQ(serial.values().size(), ring.values().size());
  ASSERT_EQ(serial.values().size(), ahead.values().size());
  for (std::size_t i = 0; i < serial.values().size(); ++i) {
    ASSERT_EQ(serial.values()[i], ring.values()[i]) << "vertex " << i;
    ASSERT_EQ(serial.values()[i], ahead.values()[i]) << "vertex " << i;
  }
  EXPECT_EQ(serial.cumulative().bytes_read, ring.cumulative().bytes_read);
}

// SIMD dispatch is a pure speed knob: forcing every vectorized kernel down
// its scalar path must reproduce the stored refactor products and the
// restored field bit for bit.
TEST(ParallelDeterminism, SimdOnOffBitwiseIdentical) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers_scalar = three_tiers();
  cm::Field scalar_restored;
  {
    cu::simd::ScopedForceScalar force_scalar;
    cc::refactor_and_write(tiers_scalar, "d.bp", "v", mesh, values,
                           chunked_config(4));
    cc::ProgressiveReader reader(tiers_scalar, "d.bp", "v");
    reader.refine_to(0);
    scalar_restored = reader.values();
  }

  auto tiers_simd = three_tiers();
  cc::refactor_and_write(tiers_simd, "d.bp", "v", mesh, values,
                         chunked_config(4));
  const auto objects_scalar = stored_objects(tiers_scalar, "d.bp", "v");
  const auto objects_simd = stored_objects(tiers_simd, "d.bp", "v");
  ASSERT_EQ(objects_scalar.size(), objects_simd.size());
  for (const auto& [key, bytes] : objects_scalar) {
    const auto it = objects_simd.find(key);
    ASSERT_NE(it, objects_simd.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }

  cc::ReaderOptions async_opts;
  async_opts.parallel.threads = 4;
  async_opts.io.depth = 8;
  cc::ProgressiveReader reader(tiers_simd, "d.bp", "v", nullptr, async_opts);
  reader.refine_to(0);
  ASSERT_EQ(scalar_restored.size(), reader.values().size());
  for (std::size_t i = 0; i < scalar_restored.size(); ++i) {
    ASSERT_EQ(scalar_restored[i], reader.values()[i]) << "vertex " << i;
  }
}

// The tier advisor only moves bytes between tiers; with it ticking between
// refinement steps (and a depth-8 reader reading from the shuffled
// placement), the restored field must stay bit-identical to a static,
// advisor-less run.
TEST(ParallelDeterminism, TierAdvisorOnOffBitwiseIdentical) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers_static = three_tiers();
  cm::Field baseline;
  {
    cc::refactor_and_write(tiers_static, "d.bp", "v", mesh, values,
                           chunked_config(0));
    cc::ProgressiveReader reader(tiers_static, "d.bp", "v");
    reader.refine_to(0);
    baseline = reader.values();
  }

  auto tiers_adaptive = three_tiers();
  cc::refactor_and_write(tiers_adaptive, "d.bp", "v", mesh, values,
                         chunked_config(0));
  canopus::tiering::TierAdvisor advisor([] {
    canopus::tiering::TieringConfig config;
    config.half_life_seconds = 1e6;
    config.cooldown_ticks = 0;
    config.max_moves_per_tick = 100;
    return config;
  }());
  advisor.watch(tiers_adaptive);
  ASSERT_TRUE(advisor.register_container("d.bp"));
  {
    ca::BpReader meta(tiers_adaptive, "d.bp");
    for (const auto& b : meta.inq_var("v").blocks) {
      if (b.kind == ca::BlockKind::kDelta) {
        advisor.heat().record(b.object_key, 10.0);
      }
    }
  }

  cc::ReaderOptions opts;
  opts.parallel.threads = 4;
  opts.io.depth = 8;
  cc::ProgressiveReader reader(tiers_adaptive, "d.bp", "v", nullptr, opts);
  std::size_t moves = 0;
  moves += advisor.tick();
  reader.refine_to(1);
  moves += advisor.tick();
  reader.refine_to(0);
  ASSERT_GT(moves, 0u);  // placement really changed mid-read

  ASSERT_EQ(baseline.size(), reader.values().size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], reader.values()[i]) << "vertex " << i;
  }
}

// Above depth 1 a step charges the simulated wall-clock of the overlapped
// reads (the makespan), not the sum of per-op costs; the blocking reader
// keeps the exact historical sum.
TEST(ParallelDeterminism, AsyncAccountingChargesMakespanNotSum) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const std::uint32_t depth = 8;

  auto run = [&](std::uint32_t io_depth) {
    auto tiers = three_tiers();
    cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                           chunked_config(0));
    cc::ReaderOptions opts;
    opts.parallel.threads = 4;
    opts.parallel.read_ahead = false;
    opts.io.depth = io_depth;
    cc::ProgressiveReader reader(tiers, "d.bp", "v", nullptr, opts);
    reader.refine_to(0);
    return reader.cumulative();
  };

  const auto blocking = run(1);
  const auto async = run(depth);
  const auto async_again = run(depth);

  // Same data volume either way; only the clock model changes.
  EXPECT_EQ(blocking.bytes_read, async.bytes_read);
  // Overlap strictly helps on multi-chunk levels and can never hurt...
  EXPECT_LT(async.io_seconds, blocking.io_seconds);
  // ...but cannot beat perfect depth-way packing of the same ops.
  EXPECT_GE(async.io_seconds, blocking.io_seconds / depth - 1e-12);
  // And the simulated clock is deterministic run to run.
  EXPECT_DOUBLE_EQ(async.io_seconds, async_again.io_seconds);
}

// Regression: a read-ahead running on a pool worker must never wait for a
// task queued behind that same worker. With one of two shared workers held,
// refine_to(0) at io depth 8 (read-ahead on) has to finish on the other.
TEST(ParallelDeterminism, ReadAheadFinishesWithOneOfTwoWorkersHeld) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config(0));

  cu::ThreadPool pool(2);
  std::promise<void> release;
  auto held = pool.submit(
      [released = release.get_future().share()] { released.wait(); });

  cc::ReaderOptions opts;  // read_ahead defaults on
  opts.shared_pool = &pool;
  opts.io.depth = 8;
  cc::ProgressiveReader reader(tiers, "d.bp", "v", nullptr, opts);
  auto refined = std::async(std::launch::async, [&] { reader.refine_to(0); });
  // Watchdog: release the held worker either way, so a hang is reported as a
  // failure instead of stalling the suite.
  const bool finished = refined.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.set_value();
  refined.get();
  held.get();
  EXPECT_TRUE(finished) << "refine_to(0) needed the held worker";
  EXPECT_TRUE(reader.at_full_accuracy());
}

// Read-ahead fetches only levels the refine_to() call restores, so the tiers
// see the same read sequence with it on or off — and a seeded fault injector
// makes the same decisions: a read to level 1 followed by a read to level 0
// returns the same fields, statuses and injector counters either way.
TEST(ParallelDeterminism, ReadAheadKeepsSeededFaultStream) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  struct Outcome {
    std::vector<cm::Field> fields;
    std::vector<std::string> statuses;
    cs::FaultCounters counters;
  };
  const auto run = [&](bool read_ahead) {
    auto tiers = three_tiers();
    cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                           chunked_config(0));
    auto faults = std::make_shared<cs::FaultInjector>(17);
    cs::FaultProfile profile;
    profile.read_error = 0.1;
    profile.corrupt = 0.05;
    profile.latency_spike = 0.2;
    profile.spike_seconds = 1e-3;
    for (std::size_t t = 1; t < tiers.tier_count(); ++t) {
      faults->set_profile(t, profile);
    }
    tiers.attach_fault_injector(faults);

    canopus::Options options;
    options.parallel.threads = 4;
    options.parallel.read_ahead = read_ahead;
    canopus::Pipeline pipeline(tiers, options);
    Outcome out;
    for (const std::uint32_t level : {1u, 0u}) {
      canopus::ReadRequest request;
      request.path = "d.bp";
      request.var = "v";
      request.target_level = level;
      canopus::ReadResult result;
      out.statuses.push_back(pipeline.read(request, &result).to_string());
      out.fields.push_back(result.values);
    }
    out.counters = faults->counters();
    return out;
  };

  const Outcome serial = run(false);
  const Outcome ahead = run(true);
  EXPECT_EQ(serial.statuses, ahead.statuses);
  ASSERT_EQ(serial.fields.size(), ahead.fields.size());
  for (std::size_t r = 0; r < serial.fields.size(); ++r) {
    ASSERT_EQ(serial.fields[r].size(), ahead.fields[r].size()) << "read " << r;
    for (std::size_t i = 0; i < serial.fields[r].size(); ++i) {
      ASSERT_EQ(serial.fields[r][i], ahead.fields[r][i])
          << "read " << r << " vertex " << i;
    }
  }
  EXPECT_EQ(serial.counters.read_errors, ahead.counters.read_errors);
  EXPECT_EQ(serial.counters.corruptions, ahead.counters.corruptions);
  EXPECT_EQ(serial.counters.latency_spikes, ahead.counters.latency_spikes);
  // The injector really fired, so a shifted stream would have shown.
  EXPECT_GT(serial.counters.total_faults() + serial.counters.latency_spikes,
            0u);
}
