// Robustness-layer tests: CRC32 + framed blobs, the deterministic fault
// injector, hierarchy retry/replica fallback, graceful degradation in the
// progressive reader, and the XML wiring of all of the above.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/canopus.hpp"
#include "core/config.hpp"
#include "sim/datasets.hpp"
#include "storage/blob_frame.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include "test_support.hpp"

namespace cc = canopus::core;
namespace cs = canopus::storage;
namespace cu = canopus::util;
namespace si = canopus::sim;
namespace ct = canopus::test;

namespace {

cu::Bytes make_blob(std::size_t n, std::uint64_t seed = 1) {
  cu::Rng rng(seed);
  cu::Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.uniform_index(256));
  return b;
}

}  // namespace

// -------------------------------------------------------------------- crc32 --

TEST(Crc32, KnownAnswer) {
  // The canonical IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  const char* digits = "123456789";
  cu::Crc32 crc;
  crc.update(digits, 9);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto blob = make_blob(1000, 3);
  cu::Crc32 crc;
  crc.update(cu::BytesView(blob).subspan(0, 123));
  crc.update(cu::BytesView(blob).subspan(123, 456));
  crc.update(cu::BytesView(blob).subspan(579));
  EXPECT_EQ(crc.value(), cu::Crc32::compute(blob));
}

TEST(Crc32, ResetStartsFresh) {
  cu::Crc32 crc;
  crc.update("junk", 4);
  crc.reset();
  crc.update("123456789", 9);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(cu::Crc32::compute(cu::BytesView{}), 0x00000000u);
}

// --------------------------------------------------------------- blob frame --

TEST(BlobFrame, RoundTrip) {
  const auto payload = make_blob(777, 5);
  const auto frame = cs::frame_blob(payload);
  EXPECT_EQ(frame.size(), cs::framed_size(payload.size()));
  EXPECT_EQ(cs::unframe_blob(frame), payload);
}

TEST(BlobFrame, EmptyPayloadRoundTrip) {
  const auto frame = cs::frame_blob(cu::BytesView{});
  EXPECT_EQ(frame.size(), cs::kFrameOverhead);
  EXPECT_TRUE(cs::unframe_blob(frame).empty());
}

TEST(BlobFrame, EverySingleBitFlipIsDetected) {
  // CRC-32 detects all single-bit errors; header flips hit magic/length/crc
  // checks. Exhaustive over a small frame.
  const auto payload = make_blob(64, 7);
  const auto frame = cs::frame_blob(payload);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto corrupted = frame;
    corrupted[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_THROW(cs::unframe_blob(corrupted), cs::IntegrityError)
        << "undetected flip at bit " << bit;
  }
}

TEST(BlobFrame, TruncationIsDetected) {
  const auto frame = cs::frame_blob(make_blob(100));
  for (const std::size_t keep : {std::size_t{0}, std::size_t{8},
                                 cs::kFrameOverhead, frame.size() - 1}) {
    EXPECT_THROW(cs::unframe_blob(cu::BytesView(frame).subspan(0, keep)),
                 cs::IntegrityError)
        << "kept " << keep;
  }
}

// ----------------------------------------------------------- fault injector --

TEST(FaultInjector, SameSeedSameDecisions) {
  cs::FaultProfile p;
  p.read_error = 0.3;
  p.corrupt = 0.2;
  p.latency_spike = 0.1;
  p.spike_seconds = 2.0;
  cs::FaultInjector a(42), b(42);
  a.set_profile(1, p);
  b.set_profile(1, p);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.on_read(1);
    const auto db = b.on_read(1);
    EXPECT_EQ(da.fail, db.fail) << i;
    EXPECT_EQ(da.corrupt, db.corrupt) << i;
    EXPECT_EQ(da.extra_seconds, db.extra_seconds) << i;
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit) << i;
  }
  EXPECT_EQ(a.counters().read_errors, b.counters().read_errors);
  EXPECT_EQ(a.counters().corruptions, b.counters().corruptions);
  EXPECT_EQ(a.counters().latency_spikes, b.counters().latency_spikes);
  EXPECT_GT(a.counters().total_faults(), 0u);  // the profile actually fires
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  cs::FaultProfile p;
  p.read_error = 0.5;
  cs::FaultInjector a(1), b(2);
  a.set_profile(0, p);
  b.set_profile(0, p);
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    diverged = a.on_read(0).fail != b.on_read(0).fail;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, InactiveTiersNeverFault) {
  cs::FaultInjector inj(9);
  cs::FaultProfile p;
  p.read_error = 1.0;
  inj.set_profile(2, p);  // only tier 2 faults
  for (int i = 0; i < 50; ++i) {
    const auto d = inj.on_read(0);
    EXPECT_FALSE(d.fail);
    EXPECT_FALSE(d.corrupt);
    EXPECT_EQ(d.extra_seconds, 0.0);
  }
  EXPECT_EQ(inj.counters().total_faults(), 0u);
}

TEST(FaultInjector, ProbabilitiesValidated) {
  cs::FaultInjector inj(0);
  cs::FaultProfile p;
  p.read_error = 1.5;
  EXPECT_THROW(inj.set_profile(0, p), canopus::Error);
  p.read_error = 0.0;
  p.corrupt = -0.1;
  EXPECT_THROW(inj.set_profile(0, p), canopus::Error);
}

// --------------------------------------------------------------- tier faults --

namespace {

/// One-tier hierarchy-free setup: a tier with an attached injector.
struct FaultedTier {
  cs::FaultInjector injector;
  cs::StorageTier tier;

  FaultedTier(const cs::FaultProfile& profile, std::uint64_t seed = 11)
      : injector(seed), tier(cs::tmpfs_spec(1 << 20)) {
    injector.set_profile(0, profile);
    tier.set_fault_injector(&injector, 0);
  }
};

}  // namespace

TEST(TierFaults, ReadErrorThrowsTierIoError) {
  cs::FaultProfile p;
  p.read_error = 1.0;
  FaultedTier ft(p);
  ft.tier.write("a", make_blob(100));
  cu::Bytes out;
  EXPECT_THROW(ft.tier.read("a", out), cs::TierIoError);
  EXPECT_EQ(ft.injector.counters().read_errors, 1u);
}

TEST(TierFaults, WriteErrorThrowsAndStoresNothing) {
  cs::FaultProfile p;
  p.write_error = 1.0;
  FaultedTier ft(p);
  EXPECT_THROW(ft.tier.write("a", make_blob(100)), cs::TierIoError);
  EXPECT_FALSE(ft.tier.contains("a"));
  EXPECT_EQ(ft.tier.used_bytes(), 0u);
  EXPECT_EQ(ft.injector.counters().write_errors, 1u);
}

TEST(TierFaults, CorruptionCaughtByCrc) {
  cs::FaultProfile p;
  p.corrupt = 1.0;
  FaultedTier ft(p);
  ft.tier.write("a", make_blob(100));
  cu::Bytes out;
  // A memory tier unframes from its stored bytes and copies only to flip a
  // bit, so the stored copy stays untouched: each clean read after a
  // corrupt one returns the original payload.
  for (int round = 0; round < 4; ++round) {
    ft.tier.set_fault_injector(&ft.injector, 0);
    EXPECT_THROW(ft.tier.read("a", out), cs::IntegrityError) << round;
    ft.tier.set_fault_injector(nullptr, 0);
    ft.tier.read("a", out);
    EXPECT_EQ(out, make_blob(100)) << round;
  }
  EXPECT_EQ(ft.injector.counters().corruptions, 4u);
}

TEST(TierFaults, LatencySpikeChargesSimClock) {
  cs::FaultProfile p;
  p.latency_spike = 1.0;
  p.spike_seconds = 5.0;
  FaultedTier ft(p);
  const auto blob = make_blob(100);
  cs::StorageTier plain(cs::tmpfs_spec(1 << 20));
  plain.write("a", blob);
  const auto w = ft.tier.write("a", blob);
  cu::Bytes out;
  const auto r = ft.tier.read("a", out);
  cu::Bytes plain_out;
  const auto pr = plain.read("a", plain_out);
  EXPECT_NEAR(w.sim_seconds, plain.write_cost(blob.size()) + 5.0, 1e-12);
  EXPECT_NEAR(r.sim_seconds, pr.sim_seconds + 5.0, 1e-12);
  EXPECT_EQ(out, blob);  // spikes slow reads down but never damage them
  EXPECT_EQ(ft.injector.counters().latency_spikes, 2u);
}

// ------------------------------------------------------- retries & replicas --

TEST(HierarchyFaults, TransientFaultsAreRetriedAndCounted) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20), cs::lustre_spec(1 << 20)});
  const auto blob = make_blob(500, 21);
  h.write_to(1, "x", blob);
  auto inj = std::make_shared<cs::FaultInjector>(5);
  cs::FaultProfile p;
  p.read_error = 0.5;
  p.corrupt = 0.2;
  inj->set_profile(1, p);
  h.attach_fault_injector(inj);
  cs::RetryPolicy retry;
  retry.max_attempts = 32;  // transient regime: some attempt succeeds
  h.set_retry_policy(retry);

  std::size_t total_retries = 0, total_corruptions = 0;
  for (int i = 0; i < 20; ++i) {
    cu::Bytes out;
    const auto io = h.read("x", out);
    EXPECT_EQ(out, blob);
    total_retries += io.retries;
    total_corruptions += io.corruptions;
  }
  // Every injected fault shows up as exactly one retry, corruption subset.
  const auto& c = inj->counters();
  EXPECT_EQ(total_retries, c.read_errors + c.corruptions);
  EXPECT_EQ(total_corruptions, c.corruptions);
  EXPECT_GT(total_retries, 0u);
}

TEST(HierarchyFaults, BackoffChargesSimulatedSeconds) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20)});
  const auto blob = make_blob(100);
  h.place("x", blob);
  cu::Bytes out;
  const double clean = h.read("x", out).sim_seconds;

  auto inj = std::make_shared<cs::FaultInjector>(3);
  cs::FaultProfile p;
  p.read_error = 0.5;
  inj->set_profile(0, p);
  h.attach_fault_injector(inj);
  cs::RetryPolicy retry;
  retry.max_attempts = 64;
  h.set_retry_policy(retry);
  cs::IoResult io;
  for (int i = 0; i < 50 && io.retries == 0; ++i) io = h.read("x", out);
  ASSERT_GT(io.retries, 0u);  // a 50% fault rate fires within 50 reads
  EXPECT_GT(io.sim_seconds, clean);  // failed attempts + backoff cost time
}

TEST(HierarchyFaults, ExhaustedPrimaryFallsBackToReplica) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20), cs::lustre_spec(1 << 20)});
  const auto blob = make_blob(400, 8);
  const auto [primary, io] = h.place_with_replica("x", blob);
  EXPECT_EQ(primary, 0u);
  ASSERT_EQ(h.replica_tier("x"), std::optional<std::size_t>(1));

  auto inj = std::make_shared<cs::FaultInjector>(1);
  cs::FaultProfile p;
  p.read_error = 1.0;  // the primary copy is gone for good
  inj->set_profile(0, p);
  h.attach_fault_injector(inj);

  cu::Bytes out;
  const auto r = h.read("x", out);
  EXPECT_EQ(out, blob);
  EXPECT_TRUE(r.from_replica);
  EXPECT_EQ(r.retries, h.retry_policy().max_attempts);  // all primary attempts
}

TEST(HierarchyFaults, ExhaustedWithoutReplicaThrows) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20)});
  h.place("x", make_blob(100));
  auto inj = std::make_shared<cs::FaultInjector>(1);
  cs::FaultProfile p;
  p.read_error = 1.0;
  inj->set_profile(0, p);
  h.attach_fault_injector(inj);
  cu::Bytes out;
  EXPECT_THROW(h.read("x", out), cs::TierIoError);
  EXPECT_EQ(inj->counters().read_errors, h.retry_policy().max_attempts);
  // The error carries what the attempts cost.
  try {
    h.read("x", out);
    ADD_FAILURE() << "read of a dead tier returned";
  } catch (const cs::TierIoError& e) {
    EXPECT_EQ(e.charge.retries, h.retry_policy().max_attempts);
    EXPECT_GT(e.charge.sim_seconds, 0.0);
    EXPECT_EQ(e.charge.bytes, 0u);
  }
}

TEST(HierarchyFaults, PersistentCorruptionSurfacesIntegrityError) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20)});
  h.place("x", make_blob(100));
  auto inj = std::make_shared<cs::FaultInjector>(1);
  cs::FaultProfile p;
  p.corrupt = 1.0;
  inj->set_profile(0, p);
  h.attach_fault_injector(inj);
  cu::Bytes out;
  EXPECT_THROW(h.read("x", out), cs::IntegrityError);
}

TEST(HierarchyFaults, ReplicaSkippedWhenNoLowerTierFits) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20), cs::lustre_spec(50)});
  const auto [tier, io] = h.place_with_replica("x", make_blob(400));
  EXPECT_EQ(tier, 0u);
  EXPECT_EQ(h.replica_tier("x"), std::nullopt);  // best effort: none fits
  cu::Bytes out;
  h.read("x", out);  // still readable from the primary
  EXPECT_EQ(out.size(), 400u);
}

// --------------------------------------------------- reader degradation ----

namespace {

si::Dataset tiny_xgc() {
  si::XgcOptions o;
  o.rings = 24;
  o.sectors = 120;
  return si::make_xgc_dataset(o);
}

}  // namespace

TEST(ReaderDegradation, DeadSlowTierDegradesInsteadOfThrowing) {
  const auto ds = tiny_xgc();
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  cc::refactor_and_write(tiers, "deg.bp", ds.variable, ds.mesh, ds.values,
                         config);

  // Open first (base + metadata live on the fast tier), then kill the slow
  // tier that holds every delta.
  cc::ProgressiveReader reader(tiers, "deg.bp", ds.variable);
  const auto base_values = reader.values();
  auto inj = std::make_shared<cs::FaultInjector>(2);
  cs::FaultProfile p;
  p.read_error = 1.0;
  inj->set_profile(1, p);
  tiers.attach_fault_injector(inj);

  reader.refine();  // must NOT throw
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
  EXPECT_EQ(reader.current_level(), 2u);        // still at the base level
  EXPECT_EQ(reader.values(), base_values);      // state untouched
  EXPECT_EQ(reader.cumulative().degraded_steps, 1u);
  // It did exhaust the full retry budget before giving up.
  EXPECT_EQ(inj->counters().read_errors, tiers.retry_policy().max_attempts);

  // refine_to stops at the first degraded step instead of spinning.
  reader.refine_to(0);
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
  EXPECT_EQ(reader.current_level(), 2u);

  // Tier recovers: refinement picks up where it left off.
  tiers.attach_fault_injector(nullptr);
  reader.refine_to(0);
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kOk);
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
            ct::level_bound(config.error_bound, ds.values));
}

TEST(ReaderDegradation, CountersMatchInjectedFaults) {
  // The acceptance scenario: 10% read faults + 1% corruption on the slow
  // tier; the full refine loop completes without throwing and the reader's
  // counters agree exactly with what the injector says it did.
  const auto ds = tiny_xgc();
  const std::size_t raw = ds.values.size() * sizeof(double);
  cs::StorageHierarchy tiers({cs::tmpfs_spec(raw), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 5;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  cc::refactor_and_write(tiers, "acc.bp", ds.variable, ds.mesh, ds.values,
                         config);
  // Geometry preloaded (and replicas written) before faults start, so the
  // per-timestep loop below reads only deltas from the faulted tier.
  const auto geometry = cc::GeometryCache::load(tiers, "acc.bp", ds.variable);

  auto inj = std::make_shared<cs::FaultInjector>(42);
  cs::FaultProfile p;
  p.read_error = 0.10;
  p.corrupt = 0.01;
  inj->set_profile(1, p);
  tiers.attach_fault_injector(inj);
  cs::RetryPolicy retry;
  retry.max_attempts = 8;  // deep retries: the loop must not degrade
  tiers.set_retry_policy(retry);

  std::size_t retries = 0, corruptions = 0;
  for (int pass = 0; pass < 5; ++pass) {
    cc::ProgressiveReader reader(tiers, "acc.bp", ds.variable, &geometry);
    reader.refine_to(0);  // must not throw
    ASSERT_NE(reader.last_status(), cc::RefineStatus::kDegraded)
        << "pass " << pass;
    ASSERT_TRUE(reader.at_full_accuracy()) << "pass " << pass;
    EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
              ct::level_bound(config.error_bound, ds.values))
        << "pass " << pass;
    retries += reader.cumulative().retries;
    corruptions += reader.cumulative().corruptions_detected;
  }
  const auto& c = inj->counters();
  EXPECT_EQ(retries, c.read_errors + c.corruptions);
  EXPECT_EQ(corruptions, c.corruptions);
  EXPECT_GT(retries, 0u);       // at ~10% over dozens of reads, faults fired
  EXPECT_GT(c.read_errors, 0u);
}

TEST(ReaderDegradation, RefineStatusRetriedOnRecoveredFault) {
  const auto ds = tiny_xgc();
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  // Four chunks per delta: a step reads four blocks from the faulty tier
  // (its geometry was read at open, before the faults).
  config.delta_chunks = 4;
  cc::refactor_and_write(tiers, "ret.bp", ds.variable, ds.mesh, ds.values,
                         config);
  cc::ProgressiveReader reader(tiers, "ret.bp", ds.variable);

  auto inj = std::make_shared<cs::FaultInjector>(17);
  cs::FaultProfile p;
  p.read_error = 0.4;  // transient: retries recover within the policy budget
  inj->set_profile(1, p);
  tiers.attach_fault_injector(inj);
  cs::RetryPolicy retry;
  retry.max_attempts = 32;
  tiers.set_retry_policy(retry);

  std::size_t retried_steps = 0;
  while (!reader.at_full_accuracy()) {
    reader.refine();
    ASSERT_NE(reader.last_status(), cc::RefineStatus::kDegraded);
    if (reader.last_status() == cc::RefineStatus::kRetried) ++retried_steps;
  }
  EXPECT_GT(retried_steps, 0u);  // seed 17 faults at least one step
  EXPECT_EQ(reader.cumulative().retries,
            inj->counters().read_errors + inj->counters().corruptions);
}

namespace {

/// What `attempts` failed reads of `key` on `tier` cost under `retry`: each
/// pays its transfer plus the backoff before the next, summed in attempt
/// order as the hierarchy charges them.
double failed_attempts_cost(const cs::StorageTier& tier, const std::string& key,
                            const cs::RetryPolicy& retry) {
  double cost = 0.0;
  double backoff = retry.backoff_seconds;
  for (std::uint32_t a = 0; a < retry.max_attempts; ++a) {
    cost += tier.read_cost(tier.object_size(key)) + backoff;
    backoff *= retry.backoff_multiplier;
  }
  return cost;
}

/// Fails every read of the lustre tier, four attempts per copy.
cs::RetryPolicy fail_every_lustre_read(cs::StorageHierarchy& tiers,
                                       std::shared_ptr<cs::FaultInjector> inj) {
  cs::FaultProfile p;
  p.read_error = 1.0;
  inj->set_profile(1, p);
  tiers.attach_fault_injector(std::move(inj));
  cs::RetryPolicy retry;
  retry.max_attempts = 4;
  tiers.set_retry_policy(retry);
  return retry;
}

}  // namespace

// A delta read that exhausts its attempts is charged what they cost: the
// degraded step reports every failed attempt as a retry, and their transfer
// time plus backoff as io_seconds, at io depth 1 and above.
TEST(ReaderDegradation, FailedDeltaReadKeepsItsCharge) {
  const auto ds = tiny_xgc();
  for (const std::uint32_t depth : {1u, 4u}) {
    SCOPED_TRACE("io depth " + std::to_string(depth));
    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
    cc::RefactorConfig config;
    config.levels = 3;
    config.codec = "zfp";
    config.error_bound = 1e-5;
    config.delta_chunks = 4;
    cc::refactor_and_write(tiers, "charge.bp", ds.variable, ds.mesh, ds.values,
                           config);
    cc::ReaderOptions options;
    options.io.depth = depth;
    cc::ProgressiveReader reader(tiers, "charge.bp", ds.variable, nullptr,
                                 options);
    // The step's first read: chunk 0 of the next level's delta, on lustre.
    const auto* first = reader.var_info().block(
        canopus::adios::BlockKind::kDelta, reader.current_level() - 1);
    ASSERT_NE(first, nullptr);
    ASSERT_EQ(tiers.find(first->object_key), std::optional<std::size_t>(1));

    auto inj = std::make_shared<cs::FaultInjector>(5);
    const auto retry = fail_every_lustre_read(tiers, inj);
    const auto step = reader.refine();
    ASSERT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
    EXPECT_EQ(inj->counters().read_errors, retry.max_attempts);
    EXPECT_EQ(step.retries, inj->counters().read_errors);
    EXPECT_EQ(step.io_seconds,
              failed_attempts_cost(tiers.tier(1), first->object_key, retry));
    EXPECT_EQ(step.bytes_read, 0u);
    EXPECT_EQ(step.degraded_steps, 1u);
    EXPECT_EQ(reader.cumulative().retries, step.retries);
  }
}

// The other reads that can give up are charged the same way: a regional
// step, which derives its chunk index and reads delta chunks only, pays its
// first chunk read's failed attempts; a geometry load pays its L0 mesh's.
TEST(ReaderDegradation, FailedRegionalAndGeometryReadsKeepTheirCharge) {
  const auto ds = tiny_xgc();
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  config.delta_chunks = 4;
  cc::refactor_and_write(tiers, "charge.bp", ds.variable, ds.mesh, ds.values,
                         config);
  cc::ProgressiveReader reader(tiers, "charge.bp", ds.variable);
  // The step's first read: chunk 0 of the next level's delta.
  const auto* first = reader.var_info().block(
      canopus::adios::BlockKind::kDelta, reader.current_level() - 1);
  const auto* mesh =
      reader.var_info().block(canopus::adios::BlockKind::kMesh, 0);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(mesh, nullptr);
  ASSERT_EQ(first->chunk, 0u);
  ASSERT_EQ(tiers.find(first->object_key), std::optional<std::size_t>(1));
  ASSERT_EQ(tiers.find(mesh->object_key), std::optional<std::size_t>(1));

  auto inj = std::make_shared<cs::FaultInjector>(5);
  const auto retry = fail_every_lustre_read(tiers, inj);
  const auto opened = reader.cumulative();
  const auto step =
      reader.refine_region(canopus::mesh::Aabb{{-1e9, -1e9}, {1e9, 1e9}});
  ASSERT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
  EXPECT_EQ(inj->counters().read_errors, retry.max_attempts);
  EXPECT_EQ(step.retries, retry.max_attempts);
  EXPECT_EQ(step.io_seconds,
            failed_attempts_cost(tiers.tier(1), first->object_key, retry));
  EXPECT_EQ(step.bytes_read, 0u);
  EXPECT_EQ(reader.cumulative().io_seconds, opened.io_seconds + step.io_seconds);

  cc::RetrievalTimings cost;
  EXPECT_THROW(cc::GeometryCache::load(tiers, "charge.bp", ds.variable, &cost),
               cs::TierIoError);
  EXPECT_EQ(cost.retries, retry.max_attempts);
  EXPECT_EQ(cost.io_seconds,
            failed_attempts_cost(tiers.tier(1), mesh->object_key, retry));
  EXPECT_EQ(inj->counters().read_errors, 2 * retry.max_attempts);
}

TEST(ReaderDegradation, StatusToString) {
  EXPECT_EQ(cc::to_string(cc::RefineStatus::kOk), "ok");
  EXPECT_EQ(cc::to_string(cc::RefineStatus::kRetried), "retried");
  EXPECT_EQ(cc::to_string(cc::RefineStatus::kDegraded), "degraded");
}

// -------------------------------------------------------------- xml wiring --

TEST(FaultConfig, XmlBuildsFaultedHierarchy) {
  const std::string xml = R"(
    <canopus-config>
      <storage policy="fastest-fit">
        <tier preset="tmpfs"  capacity="4MiB"/>
        <tier preset="lustre" capacity="1GiB"/>
      </storage>
      <faults seed="42">
        <tier name="lustre" read-error="0.1" corrupt="0.01"
              latency-spike="0.05" spike-duration="20ms"/>
      </faults>
      <retry max-attempts="6" backoff="2ms" multiplier="3"/>
    </canopus-config>)";
  const auto config = cc::load_config(xml);
  EXPECT_EQ(config.fault_seed, 42u);
  ASSERT_EQ(config.faults.size(), 1u);
  EXPECT_EQ(config.faults[0].tier_name, "lustre");
  EXPECT_DOUBLE_EQ(config.faults[0].profile.read_error, 0.1);
  EXPECT_DOUBLE_EQ(config.faults[0].profile.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(config.faults[0].profile.latency_spike, 0.05);
  EXPECT_DOUBLE_EQ(config.faults[0].profile.spike_seconds, 0.02);
  ASSERT_TRUE(config.options.retry.has_value());
  EXPECT_EQ(config.options.retry->max_attempts, 6u);
  EXPECT_DOUBLE_EQ(config.options.retry->backoff_seconds, 2e-3);
  EXPECT_DOUBLE_EQ(config.options.retry->backoff_multiplier, 3.0);

  std::unique_ptr<canopus::Pipeline> pipeline;
  ASSERT_TRUE(canopus::Pipeline::load(config, &pipeline).ok());
  const auto& tiers = pipeline->hierarchy();
  ASSERT_NE(tiers.fault_injector(), nullptr);
  EXPECT_DOUBLE_EQ(tiers.fault_injector()->profile(1).read_error, 0.1);
  EXPECT_DOUBLE_EQ(tiers.fault_injector()->profile(0).read_error, 0.0);
  EXPECT_EQ(tiers.retry_policy().max_attempts, 6u);

  // Every load builds its own injector: two pipelines from one document
  // draw independent fault streams.
  std::unique_ptr<canopus::Pipeline> second;
  ASSERT_TRUE(canopus::Pipeline::load(config, &second).ok());
  EXPECT_NE(second->hierarchy().fault_injector(), tiers.fault_injector());
}

TEST(FaultConfig, UnknownTierNameRejected) {
  const std::string xml = R"(
    <canopus-config>
      <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
      <faults><tier name="nope" read-error="0.1"/></faults>
    </canopus-config>)";
  EXPECT_THROW(cc::load_config(xml), canopus::Error);
}

TEST(FaultConfig, OutOfRangeProbabilityRejected) {
  const std::string xml = R"(
    <canopus-config>
      <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
      <faults><tier name="tmpfs" read-error="1.5"/></faults>
    </canopus-config>)";
  EXPECT_THROW(cc::load_config(xml), canopus::Error);
}

// ------------------------------------------------------ cache fault paths --

// The cache must only ever hold bytes that passed the tier boundary's frame
// verification: injected read errors and bit flips admit nothing, so a
// corrupt blob can never poison later readers through the cache.
TEST(CacheFaults, InjectedReadErrorsAreNeverCached) {
  const auto ds = tiny_xgc();
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  canopus::cache::CacheConfig cache_config;
  cache_config.budget_bytes = 32ull << 20;
  cache_config.verify_hits = true;  // re-CRC every hit while faults fly
  auto cache = std::make_shared<canopus::cache::BlockCache>(cache_config);
  tiers.attach_block_cache(cache);

  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  cc::refactor_and_write(tiers, "cf.bp", ds.variable, ds.mesh, ds.values,
                         config);

  cc::ProgressiveReader reader(tiers, "cf.bp", ds.variable);
  const std::size_t occupancy_after_open = cache->occupancy_bytes();

  // Kill the slow tier holding every delta: the refine degrades, and the
  // failed fetch must leave the cache exactly as it was.
  auto inj = std::make_shared<cs::FaultInjector>(2);
  cs::FaultProfile p;
  p.read_error = 1.0;
  inj->set_profile(1, p);
  tiers.attach_fault_injector(inj);

  reader.refine();  // must not throw
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
  EXPECT_EQ(cache->occupancy_bytes(), occupancy_after_open);
  canopus::adios::BpReader meta(tiers, "cf.bp");
  for (const auto& b : meta.inq_var(ds.variable).blocks) {
    if (b.kind != canopus::adios::BlockKind::kDelta) continue;
    EXPECT_FALSE(cache->contains(b.object_key))
        << "failed read cached: " << b.object_key;
    EXPECT_FALSE(
        cache->contains(cs::StorageHierarchy::decoded_alias(b.object_key)))
        << "decoded form of a failed read cached: " << b.object_key;
  }

  // Tier recovers: the degraded reader finishes within the accuracy bound,
  // and only now do the (verified) delta blobs enter the cache.
  tiers.attach_fault_injector(nullptr);
  reader.refine_to(0);
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kOk);
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
            ct::level_bound(config.error_bound, ds.values));
  EXPECT_GT(cache->occupancy_bytes(), occupancy_after_open);
}

// Bit flips: a corrupting tier admits nothing (every read fails its frame
// CRC), and once the cache holds clean verified bytes, later readers are
// served correct data even while the tier is still flipping bits.
// A read that gives up charges its attempts to the single-flight leader
// only: a waiter that piggybacked on the failed load read nothing, so its
// copy of the error charges nothing.
TEST(CacheFaults, FailedSingleFlightLoadChargesOnlyTheLeader) {
  canopus::cache::CacheConfig cache_config;
  cache_config.budget_bytes = 1 << 20;
  auto cache = std::make_shared<canopus::cache::BlockCache>(cache_config);
  // Resolves every local miss by failing, once a second reader waits on the
  // in-flight load.
  struct DeadRemote : cs::RemoteStore {
    const canopus::cache::BlockCache* cache = nullptr;
    cs::IoResult remote_read(const std::string& key, cu::Bytes&) override {
      while (cache->stats().single_flight_waits == 0) std::this_thread::yield();
      cs::TierIoError e("no reachable copy of '" + key + "'");
      e.charge.retries = 3;
      e.charge.sim_seconds = 0.25;
      throw e;
    }
    double estimated_read_cost(const std::string&, std::size_t) const override {
      return 0.0;
    }
  } remote;
  remote.cache = cache.get();
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20)});
  h.attach_block_cache(cache);
  h.attach_remote_store(&remote);
  // Both readers catch one shared error object, freed by whichever lets go
  // last through a reference count ThreadSanitizer cannot see; the leader
  // holds it until the waiter is done, so the waiter never frees it.
  std::atomic<bool> waiter_done{false};
  const auto charge_of_read = [&h, &waiter_done](bool leader) {
    cu::Bytes out;
    try {
      h.read("elsewhere", out);
    } catch (const cs::TierIoError& e) {
      const cs::IoResult charge = e.charge;
      while (leader && !waiter_done.load()) std::this_thread::yield();
      return charge;
    }
    ADD_FAILURE() << "read of an unreachable object returned";
    return cs::IoResult{};
  };
  auto leader = std::async(std::launch::async, charge_of_read, true);
  while (cache->stats().misses == 0) std::this_thread::yield();
  const cs::IoResult waiter = charge_of_read(false);
  waiter_done = true;
  const cs::IoResult led = leader.get();
  EXPECT_EQ(led.retries, 3u);
  EXPECT_EQ(led.sim_seconds, 0.25);
  EXPECT_EQ(waiter.retries, 0u);
  EXPECT_EQ(waiter.sim_seconds, 0.0);
}

TEST(CacheFaults, CorruptBlobsNeverPoisonLaterReaders) {
  const auto ds = tiny_xgc();
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  canopus::cache::CacheConfig cache_config;
  cache_config.budget_bytes = 32ull << 20;
  cache_config.verify_hits = true;
  auto cache = std::make_shared<canopus::cache::BlockCache>(cache_config);
  tiers.attach_block_cache(cache);

  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  cc::refactor_and_write(tiers, "cp.bp", ds.variable, ds.mesh, ds.values,
                         config);

  // Phase 1: every slow-tier read returns flipped bits. The reader degrades
  // (IntegrityError after retries), and the corrupt bytes stay out of the
  // cache.
  cc::ProgressiveReader first(tiers, "cp.bp", ds.variable);
  const std::size_t occupancy_clean = cache->occupancy_bytes();
  auto corruptor = std::make_shared<cs::FaultInjector>(7);
  cs::FaultProfile flip;
  flip.corrupt = 1.0;
  corruptor->set_profile(1, flip);
  tiers.attach_fault_injector(corruptor);

  first.refine();
  EXPECT_EQ(first.last_status(), cc::RefineStatus::kDegraded);
  EXPECT_GT(corruptor->counters().corruptions, 0u);
  EXPECT_EQ(cache->occupancy_bytes(), occupancy_clean);

  // Phase 2: tier heals; the same reader completes and fills the cache with
  // verified bytes.
  tiers.attach_fault_injector(nullptr);
  first.refine_to(0);
  ASSERT_TRUE(first.at_full_accuracy());
  ASSERT_LE(cu::max_abs_error(ds.values, first.values()),
            ct::level_bound(config.error_bound, ds.values));

  // Phase 3: bits flip again — on EVERY tier. A fresh reader must still
  // reach full accuracy entirely from the cache, detecting zero corruption
  // because it never touches the tiers for data it can get from the cache.
  auto corrupt_all = std::make_shared<cs::FaultInjector>(9);
  corruptor = nullptr;
  cs::FaultProfile flip_all;
  flip_all.corrupt = 1.0;
  corrupt_all->set_profile(0, flip_all);
  corrupt_all->set_profile(1, flip_all);
  tiers.attach_fault_injector(corrupt_all);

  cc::ProgressiveReader second(tiers, "cp.bp", ds.variable);
  second.refine_to(0);
  EXPECT_EQ(second.last_status(), cc::RefineStatus::kOk);
  EXPECT_TRUE(second.at_full_accuracy());
  EXPECT_EQ(second.cumulative().corruptions_detected, 0u);
  EXPECT_EQ(corrupt_all->counters().corruptions, 0u)
      << "a cached read still reached the corrupting tiers";
  EXPECT_LE(cu::max_abs_error(ds.values, second.values()),
            ct::level_bound(config.error_bound, ds.values));
  // And the cached-read accounting says so: zero simulated I/O for deltas.
  EXPECT_GT(cache->stats().hits, 0u);
}

// ---------------------------------------------------------- io depth ----

// Seeded sweep: io depth changes how a level's reads are charged, never which
// reads are issued. Each seed runs a depth-8 reader and its depth-1 twin on
// one container, each against a fresh injector of that seed, with read errors
// and corruptions that are terminal (one attempt, no delta replicas), with and
// without read-ahead. Every read consults the injector once; a certain zero-second
// latency spike counts those consults. The twins must consult equally often,
// stop at the same level with the same status, counters and field bits, and
// depth 8 must never charge more simulated I/O. Either reader must terminate
// cleanly: refined within the error bound, or degraded at its last good
// level. The seed is part of every failure message so CI reds replay locally.
TEST(ReaderDegradation, AsyncSweepSurvivesFaultInjection) {
  const auto ds = tiny_xgc();
  const std::uint64_t base_seed = canopus::test::test_seed();
  std::uint64_t injected = 0;  // read errors across the sweep
  for (std::uint64_t case_id = 0; case_id < 8; ++case_id) {
    const std::uint64_t seed = base_seed * 1000 + 37 * case_id + 5;
    SCOPED_TRACE("fault seed " + std::to_string(seed) +
                 " (CANOPUS_TEST_SEED=" + std::to_string(base_seed) + ")");

    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
    cc::RefactorConfig config;
    config.levels = 4;
    config.codec = "zfp";
    config.error_bound = 1e-5;
    config.delta_chunks = 8;
    cc::refactor_and_write(tiers, "sweep.bp", ds.variable, ds.mesh, ds.values,
                           config);
    cs::RetryPolicy retry;
    retry.max_attempts = 1;
    tiers.set_retry_policy(retry);

    struct Outcome {
      std::uint64_t consults = 0;
      std::uint64_t read_errors = 0;
      std::uint64_t corruptions = 0;
      std::uint32_t level = 0;
      cc::RefineStatus status = cc::RefineStatus::kOk;
      cc::RetrievalTimings timings;
      std::vector<double> values;
    };
    const auto run = [&](std::uint32_t depth, bool read_ahead) {
      cc::ReaderOptions opts;
      opts.parallel.threads = 4;
      opts.parallel.read_ahead = read_ahead;
      opts.io.depth = depth;
      cc::ProgressiveReader reader(tiers, "sweep.bp", ds.variable, nullptr,
                                   opts);
      auto inj = std::make_shared<cs::FaultInjector>(seed);
      cs::FaultProfile p;
      p.read_error = 0.05;
      p.corrupt = 0.01;
      p.latency_spike = 1.0;  // every consult counts, at zero seconds
      inj->set_profile(0, p);
      inj->set_profile(1, p);
      tiers.attach_fault_injector(inj);
      for (int call = 0; call < 6 && !reader.at_full_accuracy(); ++call) {
        EXPECT_NO_THROW(reader.refine_to(0));
      }
      tiers.attach_fault_injector(nullptr);
      if (reader.at_full_accuracy()) {
        EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
                  ct::level_bound(config.error_bound, ds.values));
      } else {
        // Degraded, never thrown: the reader holds its last good level.
        EXPECT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
        EXPECT_GT(reader.cumulative().degraded_steps, 0u);
      }
      return Outcome{inj->counters().latency_spikes,
                     inj->counters().read_errors,
                     inj->counters().corruptions,
                     reader.current_level(),
                     reader.last_status(),
                     reader.cumulative(),
                     reader.values()};
    };

    for (const bool read_ahead : {false, true}) {
      SCOPED_TRACE(read_ahead ? "read-ahead on" : "read-ahead off");
      const Outcome serial = run(1, read_ahead);
      const Outcome overlapped = run(8, read_ahead);
      EXPECT_GT(serial.consults, 0u);
      EXPECT_EQ(overlapped.consults, serial.consults);
      EXPECT_EQ(overlapped.read_errors, serial.read_errors);
      EXPECT_EQ(overlapped.corruptions, serial.corruptions);
      EXPECT_EQ(overlapped.level, serial.level);
      EXPECT_EQ(overlapped.status, serial.status);
      EXPECT_EQ(overlapped.timings.bytes_read, serial.timings.bytes_read);
      EXPECT_EQ(overlapped.timings.retries, serial.timings.retries);
      EXPECT_EQ(overlapped.timings.corruptions_detected,
                serial.timings.corruptions_detected);
      EXPECT_EQ(overlapped.timings.replica_reads, serial.timings.replica_reads);
      EXPECT_EQ(overlapped.timings.degraded_steps,
                serial.timings.degraded_steps);
      EXPECT_EQ(overlapped.values, serial.values);  // bitwise
      EXPECT_LE(overlapped.timings.io_seconds, serial.timings.io_seconds);
      injected += serial.read_errors;
    }
  }
  EXPECT_GT(injected, 0u);
}

// A fully dead delta tier degrades the async reader exactly like the
// blocking one — and recovery resumes completion-driven refinement.
TEST(ReaderDegradation, AsyncReaderDegradesAndRecovers) {
  const auto ds = tiny_xgc();
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  config.delta_chunks = 8;
  cc::refactor_and_write(tiers, "deg2.bp", ds.variable, ds.mesh, ds.values,
                         config);

  cc::ReaderOptions opts;
  opts.parallel.threads = 4;
  opts.parallel.read_ahead = false;
  opts.io.depth = 4;
  cc::ProgressiveReader reader(tiers, "deg2.bp", ds.variable, nullptr, opts);
  const auto base_values = reader.values();

  auto inj = std::make_shared<cs::FaultInjector>(2);
  cs::FaultProfile p;
  p.read_error = 1.0;
  inj->set_profile(1, p);
  tiers.attach_fault_injector(inj);

  reader.refine();  // must NOT throw
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kDegraded);
  EXPECT_EQ(reader.values(), base_values);

  tiers.attach_fault_injector(nullptr);
  reader.refine_to(0);
  EXPECT_EQ(reader.last_status(), cc::RefineStatus::kOk);
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
            ct::level_bound(config.error_bound, ds.values));
}
