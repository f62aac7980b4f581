// Tests for the storage hierarchy simulator: tier cost model, capacity
// accounting, file backend, and the paper's bypass-when-full placement.

#include <gtest/gtest.h>

#include <filesystem>

#include "storage/hierarchy.hpp"
#include "storage/tier.hpp"
#include "util/rng.hpp"

namespace cs = canopus::storage;
namespace cu = canopus::util;

namespace {
cu::Bytes make_blob(std::size_t n, std::uint64_t seed = 1) {
  cu::Rng rng(seed);
  cu::Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.uniform_index(256));
  return b;
}
}  // namespace

TEST(Tier, MemoryWriteReadRoundTrip) {
  cs::StorageTier tier(cs::tmpfs_spec(1 << 20));
  const auto blob = make_blob(1000);
  tier.write("a", blob);
  cu::Bytes out;
  tier.read("a", out);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(tier.used_bytes(), 1000u);
}

TEST(Tier, CostModelIsLinear) {
  const auto spec = cs::lustre_spec(1 << 30);
  cs::StorageTier tier(spec);
  const double small = tier.read_cost(1000);
  const double large = tier.read_cost(1'000'000);
  EXPECT_NEAR(large - small,
              999'000.0 / spec.read_bandwidth, 1e-12);
  EXPECT_GE(small, spec.read_latency);
}

TEST(Tier, FasterTierHasLowerCost) {
  cs::StorageTier fast(cs::tmpfs_spec(1 << 20));
  cs::StorageTier slow(cs::lustre_spec(1 << 20));
  const std::size_t n = 1 << 18;
  EXPECT_LT(fast.read_cost(n), slow.read_cost(n));
  EXPECT_LT(fast.write_cost(n), slow.write_cost(n));
}

TEST(Tier, CapacityEnforced) {
  cs::StorageTier tier(cs::tmpfs_spec(100));
  tier.write("a", make_blob(60));
  EXPECT_FALSE(tier.fits(50));
  EXPECT_THROW(tier.write("b", make_blob(50)), canopus::Error);
  tier.write("c", make_blob(40));  // exactly fills
  EXPECT_EQ(tier.free_bytes(), 0u);
}

TEST(Tier, RewriteReplacesNotAccumulates) {
  cs::StorageTier tier(cs::tmpfs_spec(100));
  tier.write("a", make_blob(80, 1));
  tier.write("a", make_blob(90, 2));  // would not fit if the 80 lingered
  EXPECT_EQ(tier.used_bytes(), 90u);
  cu::Bytes out;
  tier.read("a", out);
  EXPECT_EQ(out, make_blob(90, 2));
}

TEST(Tier, EraseFreesCapacity) {
  cs::StorageTier tier(cs::tmpfs_spec(100));
  tier.write("a", make_blob(80));
  tier.erase("a");
  EXPECT_EQ(tier.used_bytes(), 0u);
  tier.erase("a");  // idempotent
  cu::Bytes out;
  EXPECT_THROW(tier.read("a", out), canopus::Error);
}

TEST(Tier, FileBackendRoundTrip) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "canopus_tier_test";
  fs::remove_all(dir);
  cs::TierSpec spec = cs::ssd_spec(1 << 20);
  spec.backend = cs::Backend::kFile;
  spec.root_dir = dir.string();
  {
    cs::StorageTier tier(spec);
    const auto blob = make_blob(4096, 9);
    tier.write("chunk/with/slashes", blob);
    cu::Bytes out;
    tier.read("chunk/with/slashes", out);
    EXPECT_EQ(out, blob);
    EXPECT_TRUE(tier.contains("chunk/with/slashes"));
    tier.erase("chunk/with/slashes");
    EXPECT_FALSE(tier.contains("chunk/with/slashes"));
  }
  fs::remove_all(dir);
}

TEST(Tier, PresetsAreOrderedBySpeed) {
  // Fig. 2's pyramid: each preset tier down the stack is slower to read.
  const std::size_t n = 1 << 20;
  const std::vector<cs::TierSpec> specs{
      cs::tmpfs_spec(n), cs::nvram_spec(n),        cs::ssd_spec(n),
      cs::burst_buffer_spec(n), cs::lustre_spec(n), cs::campaign_spec(n)};
  for (std::size_t i = 1; i < specs.size(); ++i) {
    cs::StorageTier upper(specs[i - 1]);
    cs::StorageTier lower(specs[i]);
    EXPECT_LT(upper.read_cost(n), lower.read_cost(n))
        << specs[i - 1].name << " vs " << specs[i].name;
  }
}

TEST(Hierarchy, FastestFitPlacesTopDown) {
  cs::StorageHierarchy h({cs::tmpfs_spec(100), cs::lustre_spec(1000)});
  const auto [tier_a, io_a] = h.place("a", make_blob(60));
  EXPECT_EQ(tier_a, 0u);
  // Does not fit on tmpfs (40 free), bypassed to lustre — the paper's rule.
  const auto [tier_b, io_b] = h.place("b", make_blob(60, 2));
  EXPECT_EQ(tier_b, 1u);
  EXPECT_GT(io_b.sim_seconds, io_a.sim_seconds);
}

TEST(Hierarchy, ReadFindsObjectAcrossTiers) {
  cs::StorageHierarchy h({cs::tmpfs_spec(100), cs::lustre_spec(1000)});
  h.place("x", make_blob(200, 3));  // only fits on lustre
  EXPECT_EQ(h.find("x"), std::optional<std::size_t>(1));
  cu::Bytes out;
  const auto io = h.read("x", out);
  EXPECT_EQ(out, make_blob(200, 3));
  EXPECT_GT(io.sim_seconds, 0.0);
  EXPECT_EQ(h.find("missing"), std::nullopt);
}

TEST(Hierarchy, NothingFitsThrows) {
  cs::StorageHierarchy h({cs::tmpfs_spec(10), cs::lustre_spec(10)});
  EXPECT_THROW(h.place("big", make_blob(100)), canopus::Error);
}

TEST(Hierarchy, ReplaceMovesBetweenTiers) {
  cs::StorageHierarchy h({cs::tmpfs_spec(100), cs::lustre_spec(1000)});
  h.place("obj", make_blob(90));
  EXPECT_EQ(h.find("obj"), std::optional<std::size_t>(0));
  // Bigger rewrite no longer fits on tier 0; must not leak the old copy.
  h.place("obj", make_blob(500, 2));
  EXPECT_EQ(h.find("obj"), std::optional<std::size_t>(1));
  EXPECT_EQ(h.tier(0).used_bytes(), 0u);
}

TEST(Hierarchy, WriteToExplicitTier) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1000), cs::lustre_spec(1000)});
  h.write_to(1, "pinned", make_blob(10));
  EXPECT_EQ(h.find("pinned"), std::optional<std::size_t>(1));
}

TEST(Hierarchy, ReadReturnsFullRecordedSize) {
  // Regression: callers used to trust `out` blindly; the hierarchy now
  // asserts the bytes returned match the recorded object size, so a partial
  // read can never silently truncate a variable.
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20), cs::lustre_spec(1 << 30)});
  for (const std::size_t n : {std::size_t{1}, std::size_t{4096},
                              std::size_t{100'000}}) {
    const auto key = "obj" + std::to_string(n);
    h.place(key, make_blob(n, n));
    const auto tier = h.find(key);
    ASSERT_TRUE(tier.has_value());
    EXPECT_EQ(h.tier(*tier).object_size(key), n);
    cu::Bytes out;
    const auto io = h.read(key, out);
    EXPECT_EQ(out.size(), n);
    EXPECT_EQ(io.bytes, n);
    EXPECT_EQ(out, make_blob(n, n));
  }
}

TEST(Hierarchy, PlaceWithReplicaKeepsSecondCopyBelow) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1000), cs::lustre_spec(1000)});
  const auto blob = make_blob(100, 4);
  const auto [tier, io] = h.place_with_replica("r", blob);
  EXPECT_EQ(tier, 0u);
  EXPECT_EQ(h.replica_tier("r"), std::optional<std::size_t>(1));
  // The replica costs extra I/O, and lives under its own key on the tier.
  EXPECT_TRUE(h.tier(1).contains(cs::StorageHierarchy::replica_key("r")));
  // Erasing the object cleans up the replica too — no capacity leak.
  h.erase("r");
  EXPECT_EQ(h.replica_tier("r"), std::nullopt);
  EXPECT_EQ(h.tier(0).used_bytes(), 0u);
  EXPECT_EQ(h.tier(1).used_bytes(), 0u);
}

TEST(Hierarchy, ReplicaOnLastTierHasNowhereToGo) {
  cs::StorageHierarchy h({cs::tmpfs_spec(50), cs::lustre_spec(1000)});
  const auto [tier, io] = h.place_with_replica("big", make_blob(500));
  EXPECT_EQ(tier, 1u);  // bypassed the full fast tier
  EXPECT_EQ(h.replica_tier("big"), std::nullopt);  // no tier below the last
}

// ------------------------------------------------------------ aggregation --

#include "storage/aggregation.hpp"

TEST(Aggregation, MoreTargetsFasterFlush) {
  cs::AggregationModel model;
  model.writers = 512;
  model.aggregators = 16;
  const auto tier = cs::lustre_spec(1 << 30);
  model.storage_targets = 4;
  const double few = cs::aggregate_write_seconds(model, tier, 1 << 28);
  model.storage_targets = 16;
  const double many = cs::aggregate_write_seconds(model, tier, 1 << 28);
  EXPECT_LT(many, few);
}

TEST(Aggregation, TooManyAggregatorsContend) {
  cs::AggregationModel model;
  model.writers = 512;
  model.storage_targets = 4;
  const auto tier = cs::lustre_spec(1 << 30);
  model.aggregators = 4;  // matched to targets
  const double matched = cs::aggregate_write_seconds(model, tier, 1 << 28);
  model.aggregators = 512;  // every writer hits the targets
  const double flood = cs::aggregate_write_seconds(model, tier, 1 << 28);
  EXPECT_LT(matched, flood);
}

TEST(Aggregation, TooFewAggregatorsWasteTargets) {
  cs::AggregationModel model;
  model.writers = 512;
  model.storage_targets = 16;
  const auto tier = cs::lustre_spec(1 << 30);
  model.aggregators = 1;
  const double one = cs::aggregate_write_seconds(model, tier, 1 << 28);
  model.aggregators = 16;
  const double matched = cs::aggregate_write_seconds(model, tier, 1 << 28);
  EXPECT_LT(matched, one);
}

TEST(Aggregation, BestCountSitsBetweenExtremes) {
  cs::AggregationModel model;
  model.writers = 1024;
  model.storage_targets = 8;
  const auto tier = cs::lustre_spec(1 << 30);
  const auto best = cs::best_aggregator_count(model, tier, 1 << 28);
  EXPECT_GE(best, 4u);
  EXPECT_LE(best, 128u);
}

TEST(Aggregation, InvalidCountsThrow) {
  cs::AggregationModel model;
  model.writers = 4;
  model.aggregators = 8;  // more aggregators than writers
  EXPECT_THROW(
      cs::aggregate_write_seconds(model, cs::lustre_spec(1 << 20), 100),
      canopus::Error);
}
