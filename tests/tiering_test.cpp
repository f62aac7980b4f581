// Tests for the workload-adaptive auto-tiering loop (src/tiering): the
// decayed HeatTracker, the TierAdvisor's hysteresis/cooldown policy,
// promotion under capacity pressure (coldest-first room making, standalone
// and on a fabric node), predicted-residency re-stamping (planned cost ==
// achieved cost), the <tiering> config block, and heat survival across
// fabric topology changes.
//
// Randomized sweeps derive their seeds from CANOPUS_TEST_SEED (see
// tests/test_support.hpp) and print the seed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/canopus.hpp"
#include "core/config.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "serve/cost_model.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"
#include "tiering/heat_tracker.hpp"
#include "tiering/tier_advisor.hpp"

namespace ca = canopus::adios;
namespace cc = canopus::core;
namespace cf = canopus::fabric;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ct = canopus::tiering;
namespace cv = canopus::serve;
using canopus::Status;
using canopus::StatusCode;
using canopus::util::Bytes;

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
  return cs::StorageHierarchy({cs::tmpfs_spec(64 << 20),
                               cs::ssd_spec(128 << 20),
                               cs::lustre_spec(1 << 30)});
}

cc::RefactorConfig chunked_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 8;
  return config;
}

/// Advisor knobs with a huge half-life (no meaningful decay inside a test)
/// and no cooldown, so policy outcomes are functions of recorded heat alone.
ct::TieringConfig test_policy() {
  ct::TieringConfig c;
  c.half_life_seconds = 1e6;
  c.promote_threshold = 4.0;
  c.demote_threshold = 1.0;
  c.cooldown_ticks = 0;
  c.max_moves_per_tick = 100;
  return c;
}

/// Object keys of every kDelta block of `level` in `path`/`var`.
std::vector<std::string> delta_keys(cs::StorageHierarchy& tiers,
                                    const std::string& path,
                                    const std::string& var,
                                    std::uint32_t level) {
  std::vector<std::string> keys;
  const ca::BpReader reader(tiers, path);
  for (const auto& b : reader.inq_var(var).blocks) {
    if (b.kind == ca::BlockKind::kDelta && b.level == level) {
      keys.push_back(b.object_key);
    }
  }
  return keys;
}

std::map<std::string, Bytes> stored_objects(cs::StorageHierarchy& tiers,
                                            const std::string& path,
                                            const std::string& var) {
  const ca::BpReader reader(tiers, path);
  std::map<std::string, Bytes> objects;
  for (const auto& record : reader.inq_var(var).blocks) {
    Bytes bytes;
    tiers.read(record.object_key, bytes);
    objects[record.object_key] = std::move(bytes);
  }
  return objects;
}

}  // namespace

// ------------------------------------------------------------ heat tracker --

TEST(HeatTracker, DecayHalvesAtHalfLifeAndIsMonotone) {
  // Recording at t=0 keeps the elapsed-time arithmetic exact (dt/half_life
  // is exactly 1 and 2), so the half-life property is bit-exact:
  // exp2(-1) == 0.5 and exp2(-2) == 0.25.
  {
    ct::HeatTracker tracker(0.25);
    tracker.record("k", 8.0, 0.0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", 0.0), 8.0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", 0.25), 4.0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", 0.5), 2.0);
  }
  // Property sweep over random half-lives, weights, and record times:
  // half-life decay to relative precision (the time subtraction rounds),
  // strict monotonicity in elapsed time, and stamps that never run backwards.
  const std::uint64_t seed = canopus::test::test_seed() ^ 0x7ea7u;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> half_life_dist(0.01, 10.0);
  std::uniform_real_distribution<double> weight_dist(0.1, 100.0);
  std::uniform_real_distribution<double> time_dist(0.0, 100.0);
  for (int c = 0; c < 64; ++c) {
    const double half_life = half_life_dist(rng);
    const double w = weight_dist(rng);
    const double t0 = time_dist(rng);
    ct::HeatTracker tracker(half_life);
    tracker.record("k", w, t0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", t0), w) << "seed=" << seed;
    EXPECT_NEAR(tracker.heat("k", t0 + half_life), w * 0.5, 1e-9 * w)
        << "seed=" << seed;
    EXPECT_NEAR(tracker.heat("k", t0 + 2.0 * half_life), w * 0.25, 1e-9 * w)
        << "seed=" << seed;
    // Strictly decreasing along any increasing time ladder.
    double prev = tracker.heat("k", t0);
    for (int step = 1; step <= 8; ++step) {
      const double now = t0 + step * 0.37 * half_life;
      const double h = tracker.heat("k", now);
      EXPECT_LT(h, prev) << "seed=" << seed << " step=" << step;
      EXPECT_GT(h, 0.0) << "seed=" << seed;
      prev = h;
    }
    // Stamps never go backwards: an earlier query decays by factor 1.
    EXPECT_DOUBLE_EQ(tracker.heat("k", t0 - 1.0), w) << "seed=" << seed;
    // Accumulation folds decay before adding the new weight.
    tracker.record("k", w, t0 + half_life);
    EXPECT_NEAR(tracker.heat("k", t0 + half_life), w * 0.5 + w, 1e-9 * w)
        << "seed=" << seed;
  }
}

TEST(HeatTracker, UnknownKeysAreColdAndTrackedCounts) {
  ct::HeatTracker tracker(1.0);
  EXPECT_DOUBLE_EQ(tracker.heat("nope", 5.0), 0.0);
  EXPECT_EQ(tracker.tracked(), 0u);
  tracker.record("a", 1.0, 0.0);
  tracker.record("b", 2.0, 0.0);
  tracker.record("a", 1.0, 1.0);
  EXPECT_EQ(tracker.tracked(), 2u);
}

// ------------------------------------------------------------ policy loop --

TEST(TierAdvisor, PromotesHotDeltaLevelThenStabilizes) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));
  ASSERT_GT(advisor.report().groups, 0u);

  // Start the finest delta level cold, at the bottom of the stack.
  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) tiers.migrate(key, 2);

  // A hot workload on that level: mean heat far above the promote band.
  for (const auto& key : keys) advisor.heat().record(key, 10.0);

  // Each tick promotes the group one tier; two ticks reach the top.
  EXPECT_GE(advisor.tick(), 1u);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(1)) << key;
  }
  EXPECT_GE(advisor.tick(), 1u);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(0)) << key;
    // The plan was re-stamped as each migration landed.
    EXPECT_EQ(advisor.predicted_tier(key), std::optional<std::size_t>(0));
  }
  const auto after_rise = advisor.report();
  EXPECT_GE(after_rise.promotions, 2u);

  // Still hot, already on the fastest tier: placement is stable from here.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(advisor.tick(), 0u);
  EXPECT_EQ(advisor.report().promotions, after_rise.promotions);
}

TEST(TierAdvisor, FaultingSourceTierSkipsPromotionWithoutThrowing) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  // A hot delta level on the bottom tier, which now fails every read: the
  // promotion's migrate() throws TierIoError from the source tier.
  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) tiers.migrate(key, 2);
  for (const auto& key : keys) advisor.heat().record(key, 10.0);
  auto faults = std::make_shared<cs::FaultInjector>(7);
  cs::FaultProfile dead;
  dead.read_error = 1.0;
  faults->set_profile(2, dead);
  tiers.attach_fault_injector(faults);

  // The failed move is a skip, like a failed demotion: tick() returns, so
  // nothing can escape into the policy thread.
  const auto before = advisor.report();
  EXPECT_NO_THROW(advisor.tick());
  const auto after = advisor.report();
  EXPECT_EQ(after.promotions, before.promotions);
  EXPECT_GT(after.skipped_capacity, before.skipped_capacity);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(2)) << key;
    // The published plan was rolled back to actual residency.
    EXPECT_EQ(advisor.predicted_tier(key), std::optional<std::size_t>(2))
        << key;
  }
}

TEST(TierAdvisor, HysteresisBandNeverThrashes) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  // Every tracked block sits inside the band (demote 1 < heat 2 < promote 4):
  // an oscillating workload there must never move anything.
  const ca::BpReader reader(tiers, "d.bp");
  for (const auto& var : reader.variables()) {
    for (const auto& b : reader.inq_var(var).blocks) {
      advisor.heat().record(b.object_key, 2.0);
    }
  }
  const auto before = stored_objects(tiers, "d.bp", "v");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(advisor.tick(), 0u) << "tick " << i;
    // Wiggle the heat without leaving the band.
    const ca::BpReader r(tiers, "d.bp");
    for (const auto& var : r.variables()) {
      for (const auto& b : r.inq_var(var).blocks) {
        advisor.heat().record(b.object_key, (i % 2 == 0) ? 0.5 : -0.5);
      }
    }
  }
  const auto report = advisor.report();
  EXPECT_EQ(report.promotions, 0u);
  EXPECT_EQ(report.demotions, 0u);
  // Placement (and bytes) untouched.
  const auto after = stored_objects(tiers, "d.bp", "v");
  EXPECT_EQ(before.size(), after.size());
  for (const auto& [key, bytes] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }
}

TEST(TierAdvisor, CooldownSuppressesImmediateReversal) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  auto config = test_policy();
  config.cooldown_ticks = 2;
  ct::TierAdvisor advisor(config);
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) tiers.migrate(key, 1);
  for (const auto& key : keys) advisor.heat().record(key, 10.0);
  EXPECT_GE(advisor.tick(), 1u);  // promoted to tier 0
  for (const auto& key : keys) {
    ASSERT_EQ(tiers.find(key), std::optional<std::size_t>(0)) << key;
  }

  // Collapse the heat below the demote band: the group now *wants* down, but
  // it just moved — cooldown holds it for cooldown_ticks ticks.
  for (const auto& key : keys) advisor.heat().record(key, -10.0);
  const auto before = advisor.report();
  EXPECT_EQ(advisor.tick(), 0u);
  EXPECT_EQ(advisor.tick(), 0u);
  EXPECT_GT(advisor.report().skipped_cooldown, before.skipped_cooldown);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(0)) << key;
  }
  // Cooldown over: the demotion goes through.
  EXPECT_GE(advisor.tick(), 1u);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(1)) << key;
  }
  EXPECT_GT(advisor.report().demotions, before.demotions);
}

// ------------------------------------- promotion under capacity pressure --

namespace {

/// Where the promotion under test runs: a standalone hierarchy the advisor
/// watches, or one node of a 3-node fabric joined through attach_fabric.
enum class RigInput { kStandalone, kFabricNode };

const char* rig_name(RigInput input) {
  return input == RigInput::kStandalone ? "standalone" : "fabric node";
}

struct Filler {
  std::string key;
  std::size_t bytes;
  double heat;
};

/// A promotion target under pressure. Its fast tier (tier 0) holds only the
/// fillers, written in order; the hot delta levels sit on tier 1; every
/// other block starts on tier 2.
struct PressureRig {
  std::unique_ptr<cs::StorageHierarchy> standalone;
  std::unique_ptr<cf::Fabric> fabric;
  std::unique_ptr<ct::TierAdvisor> advisor;  // after the stores: dies first
  cs::StorageHierarchy* h = nullptr;
  std::map<std::string, Bytes> bytes;  // every filler and delta level
};

constexpr std::size_t kMidTier = 1 << 20;
constexpr std::size_t kSlowTier = 4 << 20;

/// A staged container "p.bp" whose delta levels are `delta_chunks` blocks
/// each. With one block, a level's group lives on one node of a fabric.
cs::StorageHierarchy staged_container(std::uint32_t delta_chunks) {
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto config = chunked_config();
  config.delta_chunks = delta_chunks;
  cc::refactor_and_write(staging, "p.bp", "v", mesh, smooth_field(mesh),
                         config);
  return staging;
}

/// Payload bytes of `key` in `h`.
std::size_t stored_size(const cs::StorageHierarchy& h, const std::string& key) {
  return h.tier(*h.find(key)).object_size(key);
}

/// Builds the rig with a fast tier of `fast_capacity` bytes. `hot_levels`
/// lists the delta levels moved to tier 1 (on a fabric, only levels the
/// chosen node owns). With `lower_full`, tiers 1 and 2 are padded full.
PressureRig make_rig(RigInput input, cs::StorageHierarchy& staging,
                     const std::vector<std::string>& hot_levels,
                     std::size_t fast_capacity,
                     const std::vector<Filler>& fillers,
                     bool lower_full = false) {
  const std::vector<cs::TierSpec> stack = {cs::tmpfs_spec(fast_capacity),
                                           cs::ssd_spec(kMidTier),
                                           cs::lustre_spec(kSlowTier)};
  PressureRig rig;
  rig.advisor = std::make_unique<ct::TierAdvisor>(test_policy());
  if (input == RigInput::kStandalone) {
    rig.standalone = std::make_unique<cs::StorageHierarchy>(stack);
    rig.h = rig.standalone.get();
    rig.advisor->watch(*rig.h);
    for (const auto& [key, bytes] : stored_objects(staging, "p.bp", "v")) {
      rig.h->place(key, bytes);
    }
    Bytes meta;
    staging.read(ca::metadata_key("p.bp"), meta);
    rig.h->place(ca::metadata_key("p.bp"), meta);
  } else {
    cf::FabricOptions fo;
    fo.nodes = 3;
    rig.fabric = std::make_unique<cf::Fabric>(fo, stack);
    rig.fabric->import_container(staging, "p.bp");
    // value() throws (failing the test) if the level has no owner.
    const auto owner = rig.fabric->directory().lookup(hot_levels.front());
    rig.h = &rig.fabric->node(owner.value().owner);
    rig.advisor->attach_fabric(rig.fabric.get());
  }
  EXPECT_TRUE(rig.advisor->register_container("p.bp"));

  cs::StorageHierarchy& h = *rig.h;
  for (std::size_t tier = 0; tier < 2; ++tier) {
    for (const auto& key : h.keys_on_tier(tier)) h.migrate(key, 2);
  }
  for (const auto& key : hot_levels) {
    h.migrate(key, 1);
    staging.read(key, rig.bytes[key]);
  }
  for (const Filler& f : fillers) {
    Bytes block(f.bytes, static_cast<std::byte>(f.key.front()));
    h.write_to(0, f.key, block);
    rig.advisor->heat().record(f.key, f.heat);
    rig.bytes[f.key] = std::move(block);
  }
  if (lower_full) {
    for (std::size_t tier = 1; tier < 3; ++tier) {
      const auto [used, capacity] = h.tier_usage(tier);
      h.write_to(tier, "pad" + std::to_string(tier), Bytes(capacity - used));
    }
  }
  return rig;
}

/// Moves never lose a block: every filler and hot level reads back
/// byte-identical from wherever it now lives.
void expect_bytes_intact(PressureRig& rig) {
  for (const auto& [key, expected] : rig.bytes) {
    Bytes got;
    rig.h->read(key, got);
    EXPECT_EQ(got, expected) << key;
  }
}

}  // namespace

TEST(TierAdvisor, PromotionMakesRoomColdestFirst) {
  auto staging = staged_container(1);
  const std::string hot_key = delta_keys(staging, "p.bp", "v", 0).front();
  const std::size_t needed = stored_size(staging, hot_key);
  // Three fillers of `filler` bytes and `slack` bytes free: one demotion is
  // too little for the hot level, two are enough.
  const std::size_t slack = needed / 4;
  const std::size_t filler = needed * 9 / 16;
  ASSERT_LT(slack + filler, needed);
  ASSERT_GE(slack + 2 * filler, needed);
  const std::size_t fast = 3 * filler + slack;
  // Written hottest first, so the least recently written is the hottest.
  const std::vector<Filler> fillers = {
      {"hot", filler, 5.0}, {"warm", filler, 3.0}, {"cold", filler, 1.0}};

  for (const RigInput input : {RigInput::kStandalone, RigInput::kFabricNode}) {
    SCOPED_TRACE(rig_name(input));
    {
      // The room already exists: the promotion demotes nothing.
      auto rig = make_rig(input, staging, {hot_key}, fast, {fillers[0]});
      rig.advisor->heat().record(hot_key, 10.0);
      EXPECT_GE(rig.advisor->tick(), 1u);
      EXPECT_EQ(rig.h->find(hot_key), std::optional<std::size_t>(0));
      EXPECT_EQ(rig.h->find("hot"), std::optional<std::size_t>(0));
      EXPECT_EQ(rig.advisor->report().evictions, 0u);
    }
    {
      // Coldest first, not least recently written, and as many victims as
      // the room takes: cold, then warm; hot stays.
      auto rig = make_rig(input, staging, {hot_key}, fast, fillers);
      rig.advisor->heat().record(hot_key, 10.0);
      EXPECT_GE(rig.advisor->tick(), 1u);
      EXPECT_EQ(rig.h->find(hot_key), std::optional<std::size_t>(0));
      EXPECT_EQ(rig.advisor->predicted_tier(hot_key),
                std::optional<std::size_t>(0));
      EXPECT_EQ(rig.h->find("cold"), std::optional<std::size_t>(1));
      EXPECT_EQ(rig.h->find("warm"), std::optional<std::size_t>(1));
      EXPECT_EQ(rig.h->find("hot"), std::optional<std::size_t>(0));
      const auto report = rig.advisor->report();
      EXPECT_EQ(report.evictions, 2u);
      EXPECT_EQ(report.promotions, 1u);
      EXPECT_EQ(report.skipped_capacity, 0u);
      expect_bytes_intact(rig);
    }
    {
      // Lower tiers full: no victim can move, so the promotion is skipped,
      // the plan matches live residency, and nothing throws or is lost.
      auto rig = make_rig(input, staging, {hot_key}, fast, fillers,
                          /*lower_full=*/true);
      rig.advisor->heat().record(hot_key, 10.0);
      const auto before = rig.advisor->report();
      EXPECT_NO_THROW(rig.advisor->tick());
      const auto after = rig.advisor->report();
      EXPECT_EQ(after.skipped_capacity, before.skipped_capacity + 1);
      EXPECT_EQ(after.promotions, before.promotions);
      EXPECT_EQ(after.evictions, 0u);
      EXPECT_EQ(rig.h->find(hot_key), std::optional<std::size_t>(1));
      EXPECT_EQ(rig.advisor->predicted_tier(hot_key), rig.h->find(hot_key));
      expect_bytes_intact(rig);
    }
  }
}

TEST(TierAdvisor, PromotionNeverDemotesItsOwnGroup) {
  // Level 0 in two blocks: `resident` already on the fast tier and colder
  // than anything else there, `behind` one tier down and hot enough to make
  // the group's mean heat promote it.
  auto staging = staged_container(2);
  const auto keys = delta_keys(staging, "p.bp", "v", 0);
  ASSERT_EQ(keys.size(), 2u);
  const std::string& resident = keys[0];
  const std::string& behind = keys[1];
  const std::size_t filler = stored_size(staging, behind);
  auto rig = make_rig(RigInput::kStandalone, staging, {behind},
                      stored_size(staging, resident) + filler,
                      {{"filler", filler, 1.0}});
  cs::StorageHierarchy& h = *rig.h;
  h.migrate(resident, 0);
  rig.advisor->heat().record(behind, 20.0);

  // The room comes from the filler, not from the group's own cold block.
  EXPECT_GE(rig.advisor->tick(), 1u);
  EXPECT_EQ(h.find(behind), std::optional<std::size_t>(0));
  EXPECT_EQ(h.find(resident), std::optional<std::size_t>(0));
  EXPECT_EQ(h.find("filler"), std::optional<std::size_t>(1));
  EXPECT_EQ(rig.advisor->report().evictions, 1u);
}

TEST(TierAdvisor, DemoteColdestPicksColdestFirstDeterministically) {
  auto staging = staged_container(1);
  const std::array<std::string, 2> level_keys = {
      delta_keys(staging, "p.bp", "v", 0).front(),
      delta_keys(staging, "p.bp", "v", 1).front()};
  const std::size_t n0 = stored_size(staging, level_keys[0]);
  const std::size_t n1 = stored_size(staging, level_keys[1]);
  // A full fast tier of three equal fillers, each big enough for either
  // level but not for both: every promotion below demotes exactly one.
  const std::size_t filler = std::max(n0, n1);
  auto rig = make_rig(RigInput::kStandalone, staging,
                      {level_keys[0], level_keys[1]}, 3 * filler,
                      {{"hot", filler, 5.0},
                       {"warm", filler, 3.0},
                       {"cold", filler, 1.0}});
  ct::TierAdvisor& advisor = *rig.advisor;
  cs::StorageHierarchy& h = *rig.h;

  // Level 0 turns hot (level 1 stays inside the band): its promotion demotes
  // exactly one object, and it must be the coldest.
  advisor.heat().record(level_keys[0], 10.0);
  advisor.heat().record(level_keys[1], 2.0);
  EXPECT_GE(advisor.tick(), 1u);
  EXPECT_EQ(h.find(level_keys[0]), std::optional<std::size_t>(0));
  EXPECT_EQ(h.find("cold"), std::optional<std::size_t>(1));
  EXPECT_EQ(h.find("warm"), std::optional<std::size_t>(0));
  EXPECT_EQ(h.find("hot"), std::optional<std::size_t>(0));
  EXPECT_EQ(advisor.report().evictions, 1u);

  // The next promotion takes the next-coldest.
  advisor.heat().record(level_keys[1], 8.0);
  EXPECT_GE(advisor.tick(), 1u);
  EXPECT_EQ(h.find(level_keys[1]), std::optional<std::size_t>(0));
  EXPECT_EQ(h.find("warm"), std::optional<std::size_t>(1));
  EXPECT_EQ(h.find("hot"), std::optional<std::size_t>(0));
  EXPECT_EQ(advisor.report().evictions, 2u);
}

// ----------------------------------------- stale residency (planned cost) --

TEST(StaleResidency, RefineEstimateTracksLiveTierAfterBackgroundDemotion) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  // The planner's I/O estimate of the step to full accuracy.
  const auto planned_io = [&tiers](const cc::ProgressiveReader& reader) {
    return cv::CostModel::build(tiers, reader).step(0).io_seconds;
  };
  cc::ProgressiveReader reader(tiers, "d.bp", "v");
  const double before = planned_io(reader);

  // A background demotion (eviction pressure, advisor policy) moves the
  // level's chunks while the reader stays open. The estimate must price the
  // tier that now holds the blocks, not the tier the writer recorded.
  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  const std::size_t origin = *tiers.find(keys.front());
  const std::size_t target = origin == 2 ? 0 : 2;
  for (const auto& key : keys) tiers.migrate(key, target);

  const double after = planned_io(reader);
  EXPECT_NE(after, before);
  if (target > origin) {
    EXPECT_GT(after, before);  // demoted to a slower tier: pricier
  } else {
    EXPECT_LT(after, before);
  }
  // Planned == achieved: a reader opened fresh (which can only see live
  // residency) prices the step identically.
  cc::ProgressiveReader fresh(tiers, "d.bp", "v");
  EXPECT_DOUBLE_EQ(after, planned_io(fresh));
}

TEST(StaleResidency, PredictedTierRestampsOnObservedMigration) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);

  const auto keys = delta_keys(tiers, "d.bp", "v", 1);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(advisor.predicted_tier(keys.front()), std::nullopt);

  // Any observed migration — advisor promotion, demotion or room-making
  // eviction, or a plain migrate — re-stamps the prediction to the achieved
  // placement.
  tiers.migrate(keys.front(), 2);
  EXPECT_EQ(advisor.predicted_tier(keys.front()),
            std::optional<std::size_t>(2));
  tiers.migrate(keys.front(), 0);
  EXPECT_EQ(advisor.predicted_tier(keys.front()),
            std::optional<std::size_t>(0));

  // With predictions in line with live residency, an advisor-aware cost
  // model and a plain one agree exactly: planned cost is achieved cost.
  cc::ProgressiveReader reader(tiers, "d.bp", "v");
  const auto with = cv::CostModel::build(tiers, reader, nullptr, &advisor);
  const auto without = cv::CostModel::build(tiers, reader, nullptr, nullptr);
  ASSERT_EQ(with.steps().size(), without.steps().size());
  for (std::size_t i = 0; i < with.steps().size(); ++i) {
    EXPECT_DOUBLE_EQ(with.steps()[i].io_seconds, without.steps()[i].io_seconds)
        << "level " << i;
  }
}

// -------------------------------------------------- bitwise invisibility --

TEST(TierAdvisor, AdvisorMovesAreBitwiseInvisibleToRestoredFields) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers_static = three_tiers();
  cc::refactor_and_write(tiers_static, "d.bp", "v", mesh, values,
                         chunked_config());
  cm::Field baseline;
  {
    cc::ProgressiveReader reader(tiers_static, "d.bp", "v");
    reader.refine_to(0);
    baseline = reader.values();
  }

  auto tiers_adaptive = three_tiers();
  cc::refactor_and_write(tiers_adaptive, "d.bp", "v", mesh, values,
                         chunked_config());
  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers_adaptive);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  // Heat the fine levels hard and let the advisor shuffle placement between
  // refinement steps — exactly the background interleaving production sees.
  std::size_t moves = 0;
  for (std::uint32_t level : {0u, 1u}) {
    for (const auto& key : delta_keys(tiers_adaptive, "d.bp", "v", level)) {
      tiers_adaptive.migrate(key, 2);
      advisor.heat().record(key, 10.0);
    }
  }
  cc::ProgressiveReader reader(tiers_adaptive, "d.bp", "v");
  reader.refine_to(1);
  moves += advisor.tick();
  reader.refine_to(0);
  moves += advisor.tick();
  ASSERT_GT(moves, 0u);  // the advisor really did re-place data mid-read

  ASSERT_EQ(baseline.size(), reader.values().size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], reader.values()[i]) << "vertex " << i;
  }
  // The stored products are byte-identical too, wherever they now live.
  const auto a = stored_objects(tiers_static, "d.bp", "v");
  const auto b = stored_objects(tiers_adaptive, "d.bp", "v");
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, bytes] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }
}

// ------------------------------------------------------- fabric topology --

TEST(TierAdvisor, HeatSurvivesAttachNodeAndRebalance) {
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(staging, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  cf::FabricOptions fo;
  fo.nodes = 2;
  cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  fabric.import_container(staging, "d.bp");

  ct::TierAdvisor advisor(test_policy());
  advisor.attach_fabric(&fabric);

  // Reads served anywhere in the fabric feed the tracker through the
  // per-node access listeners.
  const auto keys = delta_keys(staging, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  const std::string probe = keys.front();
  const auto loc = fabric.directory().lookup(probe);
  ASSERT_TRUE(loc.has_value());
  Bytes payload;
  fabric.node(loc->owner).read(probe, payload);
  const double heat_before = advisor.heat().heat(probe);
  EXPECT_GT(heat_before, 0.0);

  // Grow the cluster mid-run; the attach migrates before it returns. Heat is
  // keyed by global object names, so a chunk handed to the new owner keeps
  // its history.
  fabric.attach_node();
  EXPECT_GE(advisor.heat().heat(probe), heat_before * 0.99);

  // The listener reached the node attached after attach_fabric(): reads on
  // it keep feeding the same tracker.
  const auto moved = fabric.directory().lookup(probe);
  ASSERT_TRUE(moved.has_value());
  Bytes again;
  fabric.node(moved->owner).read(probe, again);
  EXPECT_EQ(again, payload);
  EXPECT_GT(advisor.heat().heat(probe), heat_before);
}

// ------------------------------------------------------ config + options --

TEST(TieringConfig, ParsesTieringBlock) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <tiering enabled="true" half-life="500ms" promote-above="4"
             demote-below="1" interval="10ms" max-moves="8"
             cooldown-ticks="3" reserve="0.1"/>
  </canopus-config>)");
  ASSERT_TRUE(config.options.tiering.has_value());
  EXPECT_TRUE(config.options.tiering->enabled);
  EXPECT_DOUBLE_EQ(config.options.tiering->half_life_seconds, 0.5);
  EXPECT_DOUBLE_EQ(config.options.tiering->promote_threshold, 4.0);
  EXPECT_DOUBLE_EQ(config.options.tiering->demote_threshold, 1.0);
  EXPECT_DOUBLE_EQ(config.options.tiering->interval_seconds, 0.01);
  EXPECT_EQ(config.options.tiering->max_moves_per_tick, 8u);
  EXPECT_EQ(config.options.tiering->cooldown_ticks, 3u);
  EXPECT_DOUBLE_EQ(config.options.tiering->reserve, 0.1);
}

TEST(TieringConfig, RejectsInvertedHysteresisBandNamingTheAttributes) {
  try {
    cc::load_config(R"(<canopus-config>
      <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
      <tiering promote-above="1" demote-below="4"/>
    </canopus-config>)");
    FAIL() << "inverted band accepted";
  } catch (const canopus::Error& e) {
    // The message must name the element and both attributes.
    const std::string what = e.what();
    EXPECT_NE(what.find("<tiering>"), std::string::npos) << what;
    EXPECT_NE(what.find("demote-below"), std::string::npos) << what;
    EXPECT_NE(what.find("promote-above"), std::string::npos) << what;
  }
}

TEST(TieringConfig, RejectsOutOfRangeReserve) {
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <tiering reserve="1.5"/>
  </canopus-config>)"),
               canopus::Error);
}

TEST(TieringConfig, OptionsValidateRejectsInvertedBand) {
  canopus::Options options;
  ct::TieringConfig tc;
  tc.promote_threshold = 1.0;
  tc.demote_threshold = 4.0;
  options.tiering = tc;
  const Status status = options.check();
  EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
  EXPECT_NE(status.to_string().find("demote_threshold"), std::string::npos)
      << status.to_string();
}

TEST(TieringConfig, PipelineWiringIsOrderIndependent) {
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(staging, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());
  const auto keys = delta_keys(staging, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());

  // Whichever of the three entry points comes first, the fabric reaches the
  // scheduler and the advisor, and the advisor reaches the scheduler.
  enum Step { kFabric, kAdvisor, kScheduler };
  std::array<Step, 3> order = {kFabric, kAdvisor, kScheduler};
  do {
    cf::FabricOptions fo;
    fo.nodes = 2;
    cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
    fabric.import_container(staging, "d.bp");
    canopus::Options options;
    options.tiering = test_policy();
    canopus::Pipeline pipeline(fabric.node(0), options);
    for (const Step step : order) {
      if (step == kFabric) {
        ASSERT_TRUE(pipeline.attach_fabric(&fabric).ok());
      } else if (step == kAdvisor) {
        pipeline.tier_advisor();
      } else {
        pipeline.query_scheduler();
      }
    }
    ct::TierAdvisor& advisor = pipeline.tier_advisor();
    const std::string trace = "order " + std::to_string(order[0]) +
                              std::to_string(order[1]) +
                              std::to_string(order[2]);

    // fabric -> scheduler: the query is routed to a shard.
    cv::QueryRequest query;
    query.path = "d.bp";
    query.var = "v";
    query.target_level = 0;
    query.deadline_seconds = 1e6;
    cv::QueryResult result;
    ASSERT_TRUE(pipeline.submit_query(query, &result).usable()) << trace;
    EXPECT_GE(result.shard, 0) << trace;
    // advisor -> scheduler: the query registered its container.
    EXPECT_GT(advisor.report().groups, 0u) << trace;
    // fabric -> advisor: a read that only node 1 serves feeds the tracker.
    const auto remote =
        std::find_if(keys.begin(), keys.end(), [&](const std::string& key) {
          return fabric.directory().lookup(key)->owner == 1;
        });
    ASSERT_NE(remote, keys.end()) << trace;
    const double before = advisor.heat().heat(*remote);
    Bytes bytes;
    fabric.node(1).read(*remote, bytes);
    EXPECT_GT(advisor.heat().heat(*remote), before + 0.5) << trace;
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(TieringConfig, PipelineFacadeExposesAdvisorAndReport) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cc::refactor_and_write(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                         chunked_config());

  canopus::Options options;
  options.tiering = test_policy();  // enabled=false: ticks stay manual
  canopus::Pipeline pipeline(tiers, options);
  ct::TierAdvisor& advisor = pipeline.tier_advisor();
  EXPECT_EQ(&advisor, &pipeline.tier_advisor());  // one advisor per pipeline
  EXPECT_DOUBLE_EQ(advisor.config().half_life_seconds, 1e6);
  ASSERT_TRUE(advisor.register_container("d.bp"));
  advisor.tick();
  const auto report = pipeline.tiering_report();
  EXPECT_EQ(report.ticks, 1u);
  EXPECT_GT(report.groups, 0u);
}
