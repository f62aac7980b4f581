// Elastic-topology suite: runtime attach/detach of fabric nodes, incremental
// directory plans, migration that finishes before the topology verb returns,
// the canopus::Options consolidation, and the Pipeline control plane
// (attach_node/detach_node/topology).
//
// Two regression pins live here:
//   * a query planned after detach_node never routes to the removed node
//     (ElasticServe.QueryAfterDetachNeverRoutesToRemovedNode);
//   * a read after a migration cannot be served from a stale owner's retired
//     copy (ElasticFabric.AttachNodeMigratesExactlyOwnerChangedChunks asserts
//     the losing node's copy is gone after cutover and reads stay bitwise-
//     identical).
//
// Randomized cases derive their seeds from CANOPUS_TEST_SEED (see
// tests/test_support.hpp) and print the seed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/canopus.hpp"
#include "core/geometry_cache.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "core/topology.hpp"
#include "fabric/chunk_directory.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"

namespace cc = canopus::core;
namespace cf = canopus::fabric;
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

cc::RefactorConfig refactor_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 8;
  return config;
}

/// A refactored dataset staged in an unconstrained hierarchy, ready to be
/// imported into fabrics.
struct Staged {
  cs::StorageHierarchy staging{{cs::tmpfs_spec(256 << 20)}};
  cm::TriMesh mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);

  Staged() {
    cc::refactor_and_write(staging, "d.bp", "v", mesh, smooth_field(mesh),
                           refactor_config());
  }
};

std::vector<cs::TierSpec> roomy_node_tiers() {
  return {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)};
}

bool holds(const cs::StorageHierarchy& h, const std::string& key) {
  for (std::size_t t = 0; t < h.tier_count(); ++t) {
    if (h.tier(t).contains(key)) return true;
  }
  return false;
}

std::map<std::string, std::uint32_t> owners_of(const cf::ChunkDirectory& dir) {
  std::map<std::string, std::uint32_t> out;
  for (const auto& e : dir.snapshot()) out[e.key] = e.owner;
  return out;
}

}  // namespace

// --------------------------------------------- directory: incremental plans

TEST(ElasticDirectory, AttachPlanIsExactlyTheOwnerChangedEntries) {
  cf::ChunkDirectory dir(2, cf::Partition::kMortonRange);
  std::map<std::string, std::uint32_t> chunk_of;
  for (std::uint32_t c = 0; c < 16; ++c) {
    const std::string key = "d.bp/v/delta/1/" + std::to_string(c);
    chunk_of[key] = c;
    dir.assign(key, c, 16, 100 + c);
  }
  const auto before = owners_of(dir);
  const auto epoch_before = dir.epoch();

  const cf::RebalancePlan plan = dir.attach_node(2);
  EXPECT_GT(dir.epoch(), epoch_before);
  ASSERT_FALSE(plan.moves.empty());

  // Exactly the entries whose recomputed owner differs — and nothing else.
  std::set<std::string> planned;
  for (const auto& mv : plan.moves) {
    planned.insert(mv.key);
    EXPECT_EQ(mv.from, before.at(mv.key));
    EXPECT_NE(mv.to, mv.from);
    EXPECT_EQ(mv.to, dir.owner_for(mv.key, chunk_of.at(mv.key), 16))
        << "plan target must match the live partition for " << mv.key;
  }
  for (const auto& [key, owner] : before) {
    const bool changed = dir.owner_for(key, chunk_of.at(key), 16) != owner;
    EXPECT_EQ(planned.count(key) > 0, changed) << key;
    // Owners are not flipped by planning: reads keep resolving to the old
    // owner until the fabric commits each copy.
    EXPECT_EQ(dir.lookup(key)->owner, owner) << key;
  }

  // Cutover is per-key and immediate, and runs under the epoch that planned
  // it: commit_move never bumps the epoch.
  const auto& mv = plan.moves.front();
  const auto epoch_planned = dir.epoch();
  dir.commit_move(mv.key, mv.to);
  EXPECT_EQ(dir.lookup(mv.key)->owner, mv.to);
  EXPECT_EQ(dir.epoch(), epoch_planned);
}

TEST(ElasticDirectory, DetachStopsNewPlacementButKeepsOldResolvable) {
  cf::ChunkDirectory dir(3, cf::Partition::kMortonRange);
  std::map<std::string, std::uint32_t> chunk_of;
  for (std::uint32_t c = 0; c < 12; ++c) {
    const std::string key = "d.bp/v/delta/1/" + std::to_string(c);
    chunk_of[key] = c;
    dir.assign(key, c, 12, 64);
  }
  const auto before = owners_of(dir);

  const cf::RebalancePlan plan = dir.detach_node(1);
  EXPECT_FALSE(dir.is_active(1));
  EXPECT_EQ(dir.active_nodes(), (std::vector<std::uint32_t>{0, 2}));

  // Every entry node 1 owned is planned off it; until commit, lookups still
  // find the old copy, but the replica never points at the detached node.
  for (const auto& [key, owner] : before) {
    const auto loc = dir.lookup(key);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->owner, owner);
    if (loc->replica.has_value()) {
      EXPECT_NE(*loc->replica, 1u);
    }
    EXPECT_NE(dir.owner_for(key, chunk_of.at(key), 12), 1u);
  }
  std::size_t owned_by_victim = 0;
  for (const auto& [key, owner] : before) {
    if (owner == 1) ++owned_by_victim;
  }
  ASSERT_GT(owned_by_victim, 0u);
  std::size_t planned_off_victim = 0;
  for (const auto& mv : plan.moves) {
    if (mv.from == 1) ++planned_off_victim;
  }
  EXPECT_EQ(planned_off_victim, owned_by_victim);

  // The last active node cannot be detached.
  dir.detach_node(2);
  EXPECT_THROW(dir.detach_node(0), canopus::Error);
}

// ------------------------------------------------ fabric: live attach/detach

TEST(ElasticFabric, AttachNodeMigratesExactlyOwnerChangedChunks) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 2;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  canopus::Options popt;
  popt.parallel.threads = 1;
  popt.parallel.read_ahead = false;
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";

  cm::Field reference;
  {
    canopus::Pipeline pipeline(fabric.node(0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string();
    reference = session->values();
  }

  const auto before = owners_of(fabric.directory());
  const auto stats_before = fabric.stats();
  const auto epoch_before = fabric.topology_epoch();

  std::uint32_t id = 0;
  const cf::MigrationReport report = fabric.attach_node(&id);
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(fabric.topology_epoch(), epoch_before);

  // fabric.migrations == exactly the chunks whose owner changed.
  const auto after = owners_of(fabric.directory());
  std::size_t changed = 0;
  for (const auto& [key, owner] : before) {
    if (after.at(key) != owner) ++changed;
  }
  ASSERT_GT(changed, 0u);
  EXPECT_EQ(report.chunks_moved, changed);
  EXPECT_EQ(fabric.stats().migrations - stats_before.migrations, changed);

  // Stale-owner regression: after cutover the losing node's primary copy is
  // retired (its cache entries with it), and the new owner holds the chunk —
  // a read after the migration can only be served from the current owner or
  // its replica, never the stale copy.
  for (const auto& [key, owner] : before) {
    if (after.at(key) == owner) continue;
    EXPECT_TRUE(holds(fabric.node(after.at(key)), key)) << key;
    EXPECT_FALSE(holds(fabric.node(owner), key))
        << "stale copy survived migration: " << key;
  }

  // Reads after the topology change are bitwise-identical.
  for (std::size_t n = 0; n < fabric.node_count(); ++n) {
    canopus::Pipeline pipeline(fabric.node(n), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.usable()) << "node " << n << ": " << st.to_string();
    ASSERT_TRUE(st.ok()) << "node " << n << ": " << st.to_string();
    const auto& values = session->values();
    ASSERT_EQ(values.size(), reference.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i]) << "node " << n << " i=" << i;
    }
  }
}

namespace {

enum class TopologyChange { kDetach, kAttach };

/// Sessions race full-accuracy reads while the topology changes under them,
/// and a seeded fault injector corrupts reads on one node — including the
/// migration's copy reads off it. kDetach removes that node; kAttach adds a
/// node that takes chunks from it. Zero failed queries, fields bitwise-
/// identical to a healthy reference, and every chunk the change moved is
/// accounted for.
void race_topology_change(TopologyChange change) {
  const std::uint64_t seed = canopus::test::test_seed();
  std::mt19937_64 rng(seed ^ 0xe1a5ull);
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kSessions = 4;

  Staged data;
  cf::FabricOptions fo;
  fo.nodes = kNodes;

  canopus::Options popt;
  popt.parallel.threads = 1;
  popt.parallel.read_ahead = false;
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";

  cm::Field reference;
  {
    cf::Fabric fabric(fo, roomy_node_tiers());
    fabric.import_container(data.staging, "d.bp");
    const auto geometry = cc::GeometryCache::load(fabric.node(0), "d.bp", "v");
    rreq.geometry = &geometry;
    canopus::Pipeline pipeline(fabric.node(0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string() << " seed=" << seed;
    reference = session->values();
    rreq.geometry = nullptr;
  }

  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");
  const auto geometry = cc::GeometryCache::load(fabric.node(0), "d.bp", "v");
  rreq.geometry = &geometry;

  // The faulty node: a random one to detach, or the top of the Morton range
  // when attaching, since the newcomer takes its upper chunks.
  const auto victim = change == TopologyChange::kDetach
                          ? static_cast<std::uint32_t>(rng() % kNodes)
                          : static_cast<std::uint32_t>(kNodes - 1);
  // Corrupt a fraction of the victim's reads: racing sessions and the
  // migration's copy reads both hit the CRC check and retry (or fall back
  // to the replica). The stream is seeded, so the sweep is reproducible.
  {
    auto injector = std::make_shared<cs::FaultInjector>(seed ^ 0xc0de);
    cs::FaultProfile profile;
    profile.corrupt = 0.2;
    injector->set_profile(0, profile);
    injector->set_profile(1, profile);
    fabric.node(victim).attach_fault_injector(std::move(injector));
  }

  std::vector<std::unique_ptr<canopus::Pipeline>> pipelines;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i == victim) continue;
    pipelines.push_back(
        std::make_unique<canopus::Pipeline>(fabric.node(i), popt));
  }

  const auto before = owners_of(fabric.directory());
  std::vector<std::unique_ptr<canopus::ReadSession>> sessions(kSessions);
  std::vector<Status> statuses(kSessions);
  cf::MigrationReport report;
  std::uint32_t added = 0;
  {
    std::vector<std::thread> clients;
    clients.reserve(kSessions + 1);
    for (std::size_t s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        auto& pipeline = *pipelines[s % pipelines.size()];
        auto st = pipeline.open_session(rreq, &sessions[s]);
        if (st.ok()) st = sessions[s]->refine_to(0);
        statuses[s] = st;
      });
    }
    clients.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      report = change == TopologyChange::kDetach ? fabric.detach_node(victim)
                                                 : fabric.attach_node(&added);
    });
    for (auto& client : clients) client.join();
  }

  // Zero failed queries: every racing session completed at full accuracy,
  // bitwise-identical to the healthy reference.
  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(statuses[s].ok())
        << "session " << s << ": " << statuses[s].to_string()
        << " seed=" << seed;
    const auto& values = sessions[s]->values();
    ASSERT_EQ(values.size(), reference.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i])
          << "session " << s << " i=" << i << " seed=" << seed;
    }
  }

  EXPECT_EQ(report.failed, 0u) << "seed=" << seed;
  // owned_bytes() is sized by the highest id that is active or still owns
  // entries — a fully drained top id is past the end, which is the answer.
  const auto owned = fabric.directory().owned_bytes();
  const auto owned_by = [&](std::uint32_t id) {
    return id < owned.size() ? owned[id] : 0u;
  };
  const auto after = owners_of(fabric.directory());
  if (change == TopologyChange::kDetach) {
    // The drain completed: nothing is owned by or resident on the victim,
    // and it is out of the active set for good.
    EXPECT_FALSE(fabric.attached(victim));
    EXPECT_FALSE(fabric.directory().is_active(victim));
    EXPECT_EQ(owned_by(victim), 0u);
    for (const auto& [key, owner] : after) {
      EXPECT_NE(owner, victim) << key;
    }
  } else {
    // The migration moved exactly the owner-changed entries, the faulty node
    // was among the losers, and the newcomer serves a share.
    std::size_t changed = 0;
    std::size_t lost_by_victim = 0;
    for (const auto& [key, owner] : before) {
      if (after.at(key) == owner) continue;
      ++changed;
      if (owner == victim && after.at(key) == added) ++lost_by_victim;
    }
    EXPECT_EQ(report.chunks_moved, changed) << "seed=" << seed;
    EXPECT_GT(lost_by_victim, 0u) << "seed=" << seed;
    EXPECT_GT(owned_by(added), 0u) << "seed=" << seed;
  }

  // And reads after the change still serve, bitwise-identical.
  {
    canopus::Pipeline pipeline(fabric.node(victim == 0 ? 1 : 0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string() << " seed=" << seed;
    const auto& values = session->values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i]) << "i=" << i << " seed=" << seed;
    }
  }
}

}  // namespace

TEST(ElasticFabric, DetachUnderRacingReadsAndCorruptionLosesNothing) {
  race_topology_change(TopologyChange::kDetach);
}

TEST(ElasticFabric, AttachUnderRacingReadsAndCorruptionLosesNothing) {
  race_topology_change(TopologyChange::kAttach);
}

// ------------------------------------------- serve: routing after topology

TEST(ElasticServe, QueryAfterDetachNeverRoutesToRemovedNode) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 3;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  auto options = canopus::Options{}.with_threads(1).with_serve(
      cv::ServeConfig{.workers = 2, .queue_limit = 16});
  canopus::Pipeline pipeline(fabric.node(0), options);
  ASSERT_TRUE(pipeline.attach_fabric(&fabric).ok());
  ASSERT_EQ(pipeline.serving_fabric(), &fabric);

  cv::QueryRequest query;
  query.path = "d.bp";
  query.var = "v";
  query.target_level = 0;
  query.deadline_seconds = 1e6;  // no budget pressure; routing is the test

  cv::QueryResult warm;
  ASSERT_TRUE(pipeline.submit_query(query, &warm).usable());
  ASSERT_GE(warm.shard, 0);

  // Detach the node the router favored; after the control-plane detach no
  // query may route there, ever.
  const auto victim = static_cast<std::uint32_t>(warm.shard);
  const auto epoch_before = pipeline.topology().epoch;
  ASSERT_TRUE(pipeline.detach_node(victim).ok());

  const canopus::Topology topo = pipeline.topology();
  EXPECT_GT(topo.epoch, epoch_before);
  ASSERT_EQ(topo.nodes.size(), 3u);
  EXPECT_FALSE(topo.nodes[victim].active);
  EXPECT_EQ(topo.nodes[victim].owned_bytes, 0u);
  EXPECT_EQ(topo.active_nodes(), 2u);
  EXPECT_EQ(topo.migrations, fabric.stats().migrations);
  EXPECT_GT(topo.chunk_groups, 0u);

  for (int i = 0; i < 8; ++i) {
    cv::QueryResult result;
    const Status st = pipeline.submit_query(query, &result);
    ASSERT_TRUE(st.usable()) << st.to_string();
    ASSERT_GE(result.shard, 0);
    EXPECT_NE(static_cast<std::uint32_t>(result.shard), victim)
        << "query " << i << " routed to the detached node";
    EXPECT_EQ(result.topology_epoch, topo.epoch);
  }
}

// ------------------------------------------ facade: Options + control plane

TEST(ElasticOptions, BuilderChains) {
  const auto options = canopus::Options{}
                           .with_threads(3)
                           .with_cache({.budget_bytes = 1 << 20, .shards = 2})
                           .with_serve({.workers = 1})
                           .with_io({.depth = 4, .batch = 2})
                           .with_retry({.max_attempts = 2})
                           .with_trace("t.json");
  EXPECT_EQ(options.parallel.threads, 3u);
  ASSERT_TRUE(options.cache.has_value());
  EXPECT_EQ(options.cache->budget_bytes, 1u << 20);
  ASSERT_TRUE(options.serve.has_value());
  EXPECT_EQ(options.serve->workers, 1u);
  EXPECT_EQ(options.io.depth, 4u);
  ASSERT_TRUE(options.retry.has_value());
  EXPECT_EQ(options.retry->max_attempts, 2u);
  ASSERT_TRUE(options.observability.has_value());
  EXPECT_TRUE(options.observability->enabled);
  EXPECT_EQ(options.observability->trace_path, "t.json");
  EXPECT_TRUE(options.check().ok());
}

TEST(ElasticOptions, ValidationNamesTheOffendingKnob) {
  {
    auto options = canopus::Options{}.with_serve({.workers = 0});
    const Status st = options.check();
    EXPECT_EQ(st.code, StatusCode::kInvalidArgument);
    EXPECT_NE(st.detail.find("serve.workers"), std::string::npos) << st.detail;
    EXPECT_THROW(options.validate(), canopus::Error);
  }
  {
    auto options = canopus::Options{}.with_cache({.budget_bytes = 0});
    EXPECT_EQ(options.check().code, StatusCode::kInvalidArgument);
  }
  {
    canopus::Options options;
    options.io.batch = 0;
    EXPECT_EQ(options.check().code, StatusCode::kInvalidArgument);
  }
  // A bad option surfaces at Pipeline construction (throwing ctor) and as
  // kInvalidArgument through the Status-returning load().
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20)});
  EXPECT_THROW(
      canopus::Pipeline(h, canopus::Options{}.with_serve({.workers = 0})),
      canopus::Error);
}

TEST(ElasticFacade, LoadReturnsStatusInsteadOfThrowing) {
  std::unique_ptr<canopus::Pipeline> pipeline;
  EXPECT_EQ(canopus::Pipeline::load("does/not/exist.xml", &pipeline).code,
            StatusCode::kNotFound);
  EXPECT_EQ(canopus::Pipeline::load("x.xml", nullptr).code,
            StatusCode::kInvalidArgument);

  const char* path = "elastic_facade_config.xml";
  {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "<canopus-config>"
        "<storage><tier preset=\"tmpfs\" capacity=\"4MiB\"/></storage>"
        "<threads>1</threads>"
        "</canopus-config>",
        f);
    std::fclose(f);
  }
  const Status st = canopus::Pipeline::load(path, &pipeline);
  ASSERT_TRUE(st.ok()) << st.to_string();
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(pipeline->options().parallel.threads, 1u);

  // With no trace sink configured there is nothing to flush, and that is
  // kOk.
  std::string trace_path = "unset";
  EXPECT_TRUE(pipeline->flush_trace(&trace_path).ok());
  EXPECT_TRUE(trace_path.empty());
  std::remove(path);
}

TEST(ElasticFacade, ControlPlaneWithoutFabricReportsInvalidArgument) {
  cs::StorageHierarchy h({cs::tmpfs_spec(4 << 20), cs::lustre_spec(8 << 20)});
  canopus::Pipeline pipeline(h);
  EXPECT_EQ(pipeline.serving_fabric(), nullptr);
  EXPECT_EQ(pipeline.attach_node().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.detach_node(0).code, StatusCode::kInvalidArgument);

  // The single-node topology snapshot still describes the local hierarchy.
  const canopus::Topology topo = pipeline.topology();
  EXPECT_EQ(topo.epoch, 0u);
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_EQ(topo.nodes[0].tiers,
            (std::vector<std::string>{"tmpfs", "lustre"}));
  EXPECT_EQ(topo.active_nodes(), 1u);
}

TEST(ElasticFacade, AttachDrainDetachRoundTripThroughPipeline) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 2;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  canopus::Pipeline pipeline(fabric.node(0),
                             canopus::Options{}.with_threads(1));
  ASSERT_TRUE(pipeline.attach_fabric(&fabric).ok());

  // attach_node returns once its migration has landed.
  std::uint32_t id = 0;
  const Status attached = pipeline.attach_node(&id);
  ASSERT_TRUE(attached.ok()) << attached.to_string();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(pipeline.topology().nodes.size(), 3u);
  EXPECT_EQ(pipeline.topology().active_nodes(), 3u);
  EXPECT_GT(pipeline.topology().nodes[id].owned_bytes, 0u);

  ASSERT_TRUE(pipeline.detach_node(id).ok());
  EXPECT_EQ(pipeline.topology().nodes[id].owned_bytes, 0u);
  EXPECT_EQ(pipeline.topology().active_nodes(), 2u);

  // Unknown / already-detached ids are caller bugs, not aborts.
  EXPECT_EQ(pipeline.detach_node(99).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.detach_node(id).code, StatusCode::kInvalidArgument);
}
