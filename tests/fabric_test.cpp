// Cluster-grade suite for the sharded serving fabric (src/fabric):
// partition totality/disjointness/coverage properties, directory rebalance
// correctness, remote-vs-local bitwise identity, import/replica placement,
// the cost model's remote-residency accounting, and a seeded node-kill
// stress run with exact serve accounting (no lost or duplicated chunk
// reads).
//
// Randomized cases derive their seeds from CANOPUS_TEST_SEED (see
// tests/test_support.hpp) and print the seed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adios/bp.hpp"
#include "core/canopus.hpp"
#include "core/geometry_cache.hpp"
#include "core/pipeline.hpp"
#include "fabric/chunk_directory.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "serve/cost_model.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"

namespace ca = canopus::adios;
namespace cc = canopus::core;
namespace cf = canopus::fabric;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace cv = canopus::serve;

using canopus::Status;
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

cc::RefactorConfig refactor_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 8;  // Morton ranges split across up to 8 nodes
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

  /// Every sharded (base/delta/data) block record in the container.
  std::vector<ca::BlockRecord> sharded_records() {
    std::vector<ca::BlockRecord> out;
    const ca::BpReader reader(staging, "d.bp");
    for (const auto& var : reader.variables()) {
      for (const auto& b : reader.inq_var(var).blocks) {
        if (b.kind == ca::BlockKind::kBase || b.kind == ca::BlockKind::kDelta ||
            b.kind == ca::BlockKind::kData) {
          out.push_back(b);
        }
      }
    }
    return out;
  }
};

std::vector<cs::TierSpec> roomy_node_tiers() {
  return {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)};
}

}  // namespace

// ------------------------------------------------------ partition properties

TEST(ChunkDirectory, RangePartitionIsTotalDisjointAndCovering) {
  // For every fabric size up to 8 and a sweep of chunk counts: each chunk
  // maps to exactly one node (< nodes), ranges are contiguous (owners
  // non-decreasing in Morton order, which with totality implies
  // disjointness), and with nodes <= chunk_count every node owns something.
  for (std::size_t nodes = 1; nodes <= 8; ++nodes) {
    for (std::uint32_t chunk_count :
         {static_cast<std::uint32_t>(nodes), static_cast<std::uint32_t>(nodes + 3),
          static_cast<std::uint32_t>(4 * nodes), 64u}) {
      std::vector<bool> owned(nodes, false);
      std::uint32_t prev = 0;
      for (std::uint32_t c = 0; c < chunk_count; ++c) {
        const auto owner = cf::ChunkDirectory::range_owner(c, chunk_count, nodes);
        ASSERT_LT(owner, nodes) << "nodes=" << nodes << " chunks=" << chunk_count;
        ASSERT_GE(owner, prev) << "ranges must be contiguous; nodes=" << nodes
                               << " chunks=" << chunk_count << " chunk=" << c;
        prev = owner;
        owned[owner] = true;
      }
      if (nodes <= chunk_count) {
        for (std::size_t n = 0; n < nodes; ++n) {
          EXPECT_TRUE(owned[n]) << "node " << n << " owns no chunk; nodes="
                                << nodes << " chunks=" << chunk_count;
        }
      }
    }
  }
}

TEST(ChunkDirectory, HashPartitionIsTotalDeterministicAndSpread) {
  const std::uint64_t seed = canopus::test::test_seed();
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::string> keys;
  keys.reserve(512);
  for (int i = 0; i < 512; ++i) {
    keys.push_back("d.bp/v/" + std::to_string(rng()) + "/" + std::to_string(i));
  }
  for (std::size_t nodes = 1; nodes <= 8; ++nodes) {
    std::vector<std::size_t> per_node(nodes, 0);
    for (const auto& key : keys) {
      const auto owner = cf::ChunkDirectory::hash_owner(key, nodes);
      ASSERT_LT(owner, nodes) << "seed=" << seed;
      EXPECT_EQ(owner, cf::ChunkDirectory::hash_owner(key, nodes))
          << "hash_owner must be deterministic; seed=" << seed;
      ++per_node[owner];
    }
    // 512 keys over <= 8 nodes: a starved node means the hash is broken,
    // not unlucky (P < 1e-28 for a uniform hash).
    for (std::size_t n = 0; n < nodes; ++n) {
      EXPECT_GT(per_node[n], 0u)
          << "node " << n << "/" << nodes << " starved; seed=" << seed;
    }
  }
}

TEST(ChunkDirectory, SingleChunkGroupsSpreadUnderRangePartition) {
  // kMortonRange would map every chunk_count==1 group (bases, plain data)
  // to node 0; the directory falls back to the hash for those so bases
  // spread across the fabric too.
  cf::ChunkDirectory dir(4, cf::Partition::kMortonRange);
  std::set<std::uint32_t> owners;
  for (int i = 0; i < 64; ++i) {
    owners.insert(dir.owner_for("d.bp/v" + std::to_string(i) + "/base", 0, 1));
  }
  EXPECT_GT(owners.size(), 1u);
}

TEST(ChunkDirectory, RebalanceRecomputesEveryOwnerAndReplica) {
  const std::uint64_t seed = canopus::test::test_seed();
  std::mt19937_64 rng(seed ^ 0xfab21cull);
  for (const auto partition :
       {cf::Partition::kMortonRange, cf::Partition::kHash}) {
    cf::ChunkDirectory dir(4, partition);
    struct Key {
      std::string key;
      std::uint32_t chunk;
      std::uint32_t chunk_count;
    };
    std::vector<Key> keys;
    for (int i = 0; i < 128; ++i) {
      const std::uint32_t chunk_count = (i % 3 == 0) ? 1u : 16u;
      const std::uint32_t chunk =
          static_cast<std::uint32_t>(rng() % chunk_count);
      Key k{"d.bp/v/" + std::to_string(i), chunk, chunk_count};
      const auto owner = dir.assign(k.key, k.chunk, k.chunk_count, 100 + i);
      EXPECT_EQ(owner, dir.owner_for(k.key, k.chunk, k.chunk_count))
          << "seed=" << seed;
      keys.push_back(std::move(k));
    }
    ASSERT_EQ(dir.size(), keys.size());

    // Grow to 6 nodes, then shrink to 2 and 1, one attach/detach at a time,
    // committing every planned move as the fabric would. Ids stay
    // contiguous, so the active set is {0..new_nodes-1} at each check.
    const auto commit = [&dir](const cf::RebalancePlan& plan) {
      for (const auto& move : plan.moves) dir.commit_move(move.key, move.to);
    };
    std::uint32_t nodes = 4;
    for (const std::uint32_t new_nodes : {6u, 2u, 1u}) {
      while (nodes < new_nodes) commit(dir.attach_node(nodes++));
      while (nodes > new_nodes) commit(dir.detach_node(--nodes));
      EXPECT_EQ(dir.node_count(), new_nodes);
      EXPECT_TRUE(dir.plan_rebalance().moves.empty()) << "seed=" << seed;
      for (const auto& k : keys) {
        const auto loc = dir.lookup(k.key);
        ASSERT_TRUE(loc.has_value()) << k.key << " seed=" << seed;
        EXPECT_EQ(loc->owner, dir.owner_for(k.key, k.chunk, k.chunk_count))
            << k.key << " after rebalance to " << new_nodes
            << " nodes; seed=" << seed;
        if (new_nodes > 1) {
          ASSERT_TRUE(loc->replica.has_value()) << "seed=" << seed;
          EXPECT_EQ(*loc->replica, (loc->owner + 1) % new_nodes)
              << "seed=" << seed;
        } else {
          EXPECT_FALSE(loc->replica.has_value()) << "seed=" << seed;
        }
      }
    }
    EXPECT_FALSE(dir.lookup("never-assigned").has_value());
  }
}

// --------------------------------------------------------- import/placement

TEST(Fabric, ImportShardsPrimariesAndReplicatesMetadata) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 4;
  cf::Fabric fabric(fo, roomy_node_tiers());
  const auto report = fabric.import_container(data.staging, "d.bp");

  const auto records = data.sharded_records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(report.sharded, records.size());
  EXPECT_GT(report.sharded_bytes, 0u);
  // Capacity is generous, so every sharded block got its cross-node replica.
  EXPECT_EQ(report.replicas, records.size());

  // Metadata lives on every node (each node can open the container).
  const auto meta_key = ca::metadata_key("d.bp");
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    EXPECT_TRUE(fabric.node(i).find(meta_key).has_value()) << "node " << i;
  }

  // Each sharded primary sits on its directory owner, its replica copy on
  // the ring successor — and nowhere else.
  for (const auto& r : records) {
    const auto loc = fabric.directory().lookup(r.object_key);
    ASSERT_TRUE(loc.has_value()) << r.object_key;
    ASSERT_TRUE(loc->replica.has_value());
    const auto rkey = cs::StorageHierarchy::replica_key(r.object_key);
    for (std::size_t i = 0; i < fabric.node_count(); ++i) {
      EXPECT_EQ(fabric.node(i).find(r.object_key).has_value(), i == loc->owner)
          << r.object_key << " on node " << i;
      EXPECT_EQ(fabric.node(i).find(rkey).has_value(), i == *loc->replica)
          << rkey << " on node " << i;
    }
  }

  // With 8 Morton-range chunks per delta level over 4 nodes, every node
  // owns a share of the payload.
  for (const auto owned : fabric.directory().owned_bytes()) {
    EXPECT_GT(owned, 0u);
  }
}

TEST(Fabric, RemoteReadsAreBitwiseIdenticalToStaging) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 4;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  const auto records = data.sharded_records();
  std::uint64_t expected_remote = 0;
  for (const auto& r : records) {
    const auto loc = fabric.directory().lookup(r.object_key);
    ASSERT_TRUE(loc.has_value());
    const std::size_t reader_node = (loc->owner + 1) % fabric.node_count();

    Bytes want, got;
    data.staging.read(r.object_key, want);
    const auto io = fabric.node(reader_node).read(r.object_key, got);
    ++expected_remote;

    ASSERT_EQ(got.size(), want.size()) << r.object_key;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "remote read of " << r.object_key << " differs from staging";
    EXPECT_FALSE(io.from_replica);
    // The network envelope is on the simulated clock.
    EXPECT_GE(io.sim_seconds, fo.remote_latency_seconds);
  }
  const auto stats = fabric.stats();
  EXPECT_EQ(stats.remote_reads, expected_remote);
  EXPECT_EQ(stats.failed_remote_reads, 0u);
  // Every remote read was served locally at the owner: exactly one local
  // hit per resolution.
  EXPECT_EQ(stats.local_hits, expected_remote);
}

TEST(Fabric, RouteQueryPrefersOwningAliveNode) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 3;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  const auto per_node = fabric.directory().owned_bytes_for_prefix("d.bp/v/");
  const auto routed = fabric.route_query("d.bp", "v");
  ASSERT_LT(routed, fo.nodes);
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    EXPECT_GE(per_node[routed], per_node[i]) << "node " << i;
  }

  fabric.kill_node(routed);
  const auto rerouted = fabric.route_query("d.bp", "v");
  EXPECT_NE(rerouted, routed);
  EXPECT_TRUE(fabric.alive(rerouted));
  fabric.revive_node(routed);
  EXPECT_EQ(fabric.route_query("d.bp", "v"), routed);
}

// --------------------------------------------- cost model remote residency

TEST(Fabric, CostModelChargesRemoteEnvelopeForNonResidentChunks) {
  // Regression for the single-cache-residency assumption: planning used to
  // charge a remote-resident chunk its *record* tier cost (as if it were
  // local), overplanning the reachable level. With a deliberately huge
  // network latency the plan must refuse to schedule refinement a 1-second
  // budget cannot buy.
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 4;
  fo.remote_latency_seconds = 5.0;  // absurd on purpose: 5 s per message
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  auto& home = fabric.node(0);
  std::uint32_t coarsest = 0;
  double base_total = 0.0;
  {
    cc::ProgressiveReader probe(home, "d.bp", "v");
    coarsest = probe.current_level();
    base_total = probe.cumulative().total();
    const auto model = cv::CostModel::build(home, probe);
    // Every refinement step has 8 Morton-range chunks, at most 2 of them on
    // node 0: its planned I/O must include at least one 5 s network hop.
    for (std::uint32_t l = 0; l < coarsest; ++l) {
      EXPECT_GE(model.step(l).io_seconds, fo.remote_latency_seconds)
          << "level " << l;
    }
    // And the budget arithmetic: 1 s above the base cost cannot reach any
    // finer level.
    EXPECT_EQ(model.reachable_level(coarsest, 1.0, 0), coarsest);
  }

  // End to end through the scheduler: the plan pins the coarsest level and
  // the query degrades instead of blowing its deadline on remote chunks.
  cv::QueryScheduler scheduler(home, {}, {});
  cv::QueryRequest request;
  request.path = "d.bp";
  request.var = "v";
  request.target_level = 0;
  request.deadline_seconds = base_total + 1.0;
  cv::QueryResult result;
  const Status status = scheduler.execute(request, &result);
  ASSERT_TRUE(status.usable()) << status.to_string();
  EXPECT_TRUE(status.degraded);
  EXPECT_EQ(result.planned_level, coarsest);
  EXPECT_EQ(result.achieved_level, coarsest);

  // Control: the same data in a single-node fabric is all local, so the
  // same plan reaches full accuracy within an ordinary budget.
  cf::FabricOptions single;
  single.nodes = 1;
  cf::Fabric local(single, roomy_node_tiers());
  local.import_container(data.staging, "d.bp");
  cc::ProgressiveReader probe(local.node(0), "d.bp", "v");
  const auto model = cv::CostModel::build(local.node(0), probe);
  for (std::uint32_t l = 0; l < coarsest; ++l) {
    EXPECT_LT(model.step(l).io_seconds, 1.0) << "level " << l;
  }
  EXPECT_EQ(model.reachable_level(coarsest, 1.0, 0), 0u);
}

// ------------------------------------------------------- node-kill stress

TEST(Fabric, NodeKillMidRunDegradesToReplicasWithoutLostReads) {
  // K sessions spread over the surviving nodes of a 4-node fabric while a
  // seeded victim dies mid-run. Every query must complete non-degraded from
  // replica owners, bitwise-identical to a healthy reference run — and the
  // fabric-wide serve accounting must balance exactly: one local hit per
  // chunk fetch, K times the reference count, so no read was lost or
  // duplicated in the failover.
  const std::uint64_t seed = canopus::test::test_seed();
  std::mt19937_64 rng(seed ^ 0x57e55ull);
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kSessions = 6;

  Staged data;
  cf::FabricOptions fo;
  fo.nodes = kNodes;

  canopus::Options popt;
  popt.parallel.threads = 1;  // serial, on-demand reads: exact fetch counts
  popt.parallel.read_ahead = false;

  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";

  // Reference: one session on a healthy identical fabric. R1 is the exact
  // number of serves a full-accuracy session costs (node-independent: every
  // fetch resolves to exactly one successful serve somewhere).
  std::uint64_t reference_serves = 0;
  cm::Field reference_field;
  {
    cf::Fabric fabric(fo, roomy_node_tiers());
    fabric.import_container(data.staging, "d.bp");
    const auto geometry = cc::GeometryCache::load(fabric.node(0), "d.bp", "v");
    rreq.geometry = &geometry;
    const auto before = fabric.stats().local_hits;
    canopus::Pipeline pipeline(fabric.node(0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string() << " seed=" << seed;
    reference_serves = fabric.stats().local_hits - before;
    reference_field = session->values();
  }
  ASSERT_GT(reference_serves, 0u);

  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");
  const auto geometry = cc::GeometryCache::load(fabric.node(0), "d.bp", "v");
  rreq.geometry = &geometry;

  const std::size_t victim = rng() % kNodes;
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i != victim) survivors.push_back(i);
  }
  std::vector<std::unique_ptr<canopus::Pipeline>> pipelines;
  for (const auto i : survivors) {
    pipelines.push_back(std::make_unique<canopus::Pipeline>(fabric.node(i), popt));
  }

  const auto before = fabric.stats();
  std::vector<std::unique_ptr<canopus::ReadSession>> sessions(kSessions);
  std::vector<Status> statuses(kSessions);
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
      fabric.kill_node(victim);
    });
    for (auto& client : clients) client.join();
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(statuses[s].usable())
        << "session " << s << ": " << statuses[s].to_string()
        << " victim=" << victim << " seed=" << seed;
    EXPECT_FALSE(statuses[s].degraded)
        << "session " << s << " degraded; victim=" << victim
        << " seed=" << seed;
    const auto& got = sessions[s]->values();
    ASSERT_EQ(got.size(), reference_field.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], reference_field[i])
          << "session " << s << " vertex " << i << " victim=" << victim
          << " seed=" << seed;
    }
  }

  const auto after = fabric.stats();
  // Exact accounting: every chunk fetch of every session was served exactly
  // once (locally, remotely, or by a replica owner) — K x the reference run.
  EXPECT_EQ(after.local_hits - before.local_hits, kSessions * reference_serves)
      << "victim=" << victim << " seed=" << seed;
  EXPECT_EQ(after.failed_remote_reads, 0u)
      << "victim=" << victim << " seed=" << seed;
}
