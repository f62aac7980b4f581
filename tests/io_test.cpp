// Tests for the batched submission/completion engine (src/io): the
// overlap-makespan accounting, FIFO completion order, serial-equivalent
// per-op results, batching behavior, deadlines, per-op error isolation, and
// teardown with unconsumed ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "io/io_ring.hpp"
#include "storage/hierarchy.hpp"
#include "storage/tier.hpp"
#include "util/rng.hpp"

namespace cio = canopus::io;
namespace cs = canopus::storage;
namespace cu = canopus::util;

namespace {

cu::Bytes blob(std::size_t n, std::uint64_t seed) {
  cu::Rng rng(seed);
  cu::Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.uniform_index(256));
  return b;
}

cs::StorageHierarchy two_tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
}

/// Writes `n` distinct objects and returns their keys in write order.
std::vector<std::string> seed_objects(cs::StorageHierarchy& tiers,
                                      std::size_t n) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("obj/" + std::to_string(i));
    tiers.place(keys.back(), blob(512 + 37 * i, i + 1));
  }
  return keys;
}

}  // namespace

// --------------------------------------------------------------- makespan --

TEST(OverlapMakespan, DepthOneIsTheOrderedSum) {
  const std::vector<double> costs{0.1, 0.25, 0.3, 0.01};
  // Bit-identical to the historical left-to-right fold, not merely close:
  // async-off accounting must not move by an ulp.
  double sum = 0.0;
  for (double c : costs) sum += c;
  EXPECT_EQ(cio::overlap_makespan(costs, 1), sum);
  EXPECT_EQ(cio::overlap_makespan(costs, 0), sum);
  EXPECT_EQ(cio::overlap_makespan({}, 1), 0.0);
  EXPECT_EQ(cio::overlap_makespan({}, 8), 0.0);
}

TEST(OverlapMakespan, OverlapIsBoundedByMaxAndSum) {
  cu::Rng rng(11);
  std::vector<double> costs(40);
  for (auto& c : costs) c = rng.uniform(1e-4, 1e-2);
  const double sum = std::accumulate(costs.begin(), costs.end(), 0.0);
  const double maxc = *std::max_element(costs.begin(), costs.end());
  double prev = sum;
  for (std::uint32_t depth : {2u, 3u, 8u, 64u}) {
    const double m = cio::overlap_makespan(costs, depth);
    EXPECT_GE(m, maxc);            // the longest op can never be hidden
    EXPECT_GE(m, sum / depth);     // depth lanes can't beat perfect packing
    EXPECT_LE(m, sum + 1e-12);     // overlap never makes things slower
    EXPECT_LE(m, prev + 1e-12);    // deeper rings never hurt
    prev = m;
  }
  // With more lanes than ops, every op runs concurrently from t=0.
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 64), maxc);
}

TEST(OverlapMakespan, EqualCostsPackPerfectly) {
  const std::vector<double> costs(6, 0.5);
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 2), 1.5);
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 3), 1.0);
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 6), 0.5);
}

// ------------------------------------------------------------------- ring --

TEST(IoRing, CompletionsArriveInSubmissionOrderWithPayloads) {
  auto tiers = two_tiers();
  const auto keys = seed_objects(tiers, 10);

  cio::IoConfig cfg;
  cfg.depth = 4;
  cfg.batch = 2;
  cio::IoRing ring(tiers, cfg);
  for (const auto& k : keys) ring.submit(k);
  EXPECT_EQ(ring.in_flight(), keys.size());

  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto c = ring.wait_next();
    EXPECT_EQ(c.id, i);
    EXPECT_EQ(c.key, keys[i]);
    EXPECT_FALSE(c.error);
    EXPECT_EQ(c.payload, blob(512 + 37 * i, i + 1));
  }
  EXPECT_EQ(ring.in_flight(), 0u);

  const auto s = ring.stats();
  EXPECT_EQ(s.submitted, keys.size());
  EXPECT_EQ(s.completed, keys.size());
  // Batching actually batched: fewer read_batch calls than ops, but at least
  // ceil(n / batch) of them.
  EXPECT_GE(s.batches, (keys.size() + cfg.batch - 1) / cfg.batch);
  EXPECT_LT(s.batches, keys.size());
  EXPECT_EQ(s.deadline_misses, 0u);
}

TEST(IoRing, PerOpResultsMatchSerialReads) {
  auto serial_tiers = two_tiers();
  auto ring_tiers = two_tiers();
  const auto keys = seed_objects(serial_tiers, 8);
  seed_objects(ring_tiers, 8);

  std::vector<cs::IoResult> serial;
  for (const auto& k : keys) {
    cu::Bytes out;
    serial.push_back(serial_tiers.read(k, out));
  }

  cio::IoConfig cfg;
  cfg.depth = 4;
  cfg.batch = 3;
  cio::IoRing ring(ring_tiers, cfg);
  for (const auto& k : keys) ring.submit(k);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto c = ring.wait_next();
    EXPECT_EQ(c.io.bytes, serial[i].bytes) << keys[i];
    EXPECT_EQ(c.io.retries, serial[i].retries) << keys[i];
    // Batched submission amortizes same-tier round trips, so each op's sim
    // cost can only shrink, never grow, relative to its serial read.
    EXPECT_LE(c.io.sim_seconds, serial[i].sim_seconds + 1e-12) << keys[i];
    EXPECT_GT(c.io.sim_seconds, 0.0) << keys[i];
  }
}

TEST(IoRing, ErrorsSurfacePerOpWithoutPoisoningOthers) {
  auto tiers = two_tiers();
  const auto keys = seed_objects(tiers, 3);

  cio::IoConfig cfg;
  cfg.depth = 2;
  cio::IoRing ring(tiers, cfg);
  ring.submit(keys[0]);
  ring.submit("does/not/exist");
  ring.submit(keys[2]);

  const auto a = ring.wait_next();
  EXPECT_FALSE(a.error);
  EXPECT_FALSE(a.payload.empty());

  const auto b = ring.wait_next();
  ASSERT_TRUE(b.error);
  EXPECT_TRUE(b.payload.empty());
  EXPECT_THROW(std::rethrow_exception(b.error), canopus::Error);

  const auto c = ring.wait_next();
  EXPECT_FALSE(c.error);
  EXPECT_EQ(c.payload, blob(512 + 37 * 2, 3));
}

TEST(IoRing, DeadlineMissesAreRecordedNotEnforced) {
  auto tiers = two_tiers();
  const auto keys = seed_objects(tiers, 4);

  cio::IoConfig strict;
  strict.depth = 2;
  strict.deadline_seconds = 1e-15;  // below any tier's read latency
  cio::IoRing ring(tiers, strict);
  for (const auto& k : keys) ring.submit(k);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto c = ring.wait_next();
    EXPECT_TRUE(c.deadline_missed) << i;
    EXPECT_FALSE(c.error) << i;  // record-only: the op still succeeds
    EXPECT_FALSE(c.payload.empty()) << i;
  }
  EXPECT_EQ(ring.stats().deadline_misses, keys.size());

  // deadline 0 disables the check entirely.
  cio::IoConfig lax;
  lax.depth = 2;
  cio::IoRing ring2(tiers, lax);
  for (const auto& k : keys) ring2.submit(k);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(ring2.wait_next().deadline_missed);
  }
  EXPECT_EQ(ring2.stats().deadline_misses, 0u);
}

TEST(IoRing, DestructorDrainsUnconsumedOps) {
  auto tiers = two_tiers();
  const auto keys = seed_objects(tiers, 6);
  std::vector<std::string> read;
  tiers.attach_access_listener(
      [&read](const std::string& key, std::size_t) { read.push_back(key); });
  {
    cio::IoConfig cfg;
    cfg.depth = 2;
    cio::IoRing ring(tiers, cfg);
    for (const auto& k : keys) ring.submit(k);
    // Consume one completion, abandon the rest: teardown must not hang.
    EXPECT_EQ(ring.wait_next().id, 0u);
  }
  // Only the first batch (depth 2) was ever issued; the abandoned ops behind
  // it were dropped, never read.
  EXPECT_EQ(read, (std::vector<std::string>{keys[0], keys[1]}));
  // The hierarchy is still fully usable afterwards.
  cu::Bytes out;
  EXPECT_NO_THROW(tiers.read(keys[3], out));
}
