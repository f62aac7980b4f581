#pragma once
// Sharded multi-node serving fabric (simulated cluster).
//
// Canopus's elasticity story assumes analytics draw on the aggregate
// DRAM+SSD of many nodes, not one process's tiers. The Fabric models that:
// N nodes in one process, each owning a StorageHierarchy (its slice of the
// cluster's tiered memory) plus an optional BlockCache, with refactored
// products sharded across them by a ChunkDirectory. The shape follows
// ScaleStore's buffer manager — partitioned ownership and message-channel
// remote access:
//
//   * import_container() shards a written BP container: base/delta/data
//     blocks go to their directory owner (plus a replica copy on the ring
//     successor, reusing the storage layer's replica-key machinery), while
//     metadata and geometry blocks are small and read-mostly, so every node
//     keeps a full copy.
//   * Each node's hierarchy gets a RemoteStore adapter: a local miss
//     resolves through the directory to the owner node, paying a
//     configurable network envelope (remote-us latency + remote-bw
//     bandwidth) on the simulated clock. A dead or faulting owner degrades
//     to the replica owner transparently — readers just see
//     IoResult::from_replica, exactly like an intra-hierarchy fallback.
//
// The fabric itself never demotes: a node's placement is the storage
// layer's fastest-tier-with-room rule, and the tier advisor (src/tiering,
// TierAdvisor::attach_fabric) is the one policy that moves blocks between a
// node's tiers, by access heat.
//
// Elastic topology: the node table grows and shrinks at runtime, and
// attach_node() and detach_node() are the only ways to change it. Topology
// changes are serialized, and each finishes its migration on the caller's
// thread before it returns. attach_node() adds a node (same tier stack),
// seeds it with the replicated metadata/geometry blocks, and migrates exactly
// the chunks whose directory owner changed — copy to the new owner, then
// commit_move() cutover, then retire the old copy (which also invalidates the
// old owner's cache entries). detach_node() drains: the node leaves the
// directory's active set first (no new placements or replica targets), its
// primaries are copied to their new owners and its replica copies repaired
// onto the new ring successors, and only then is it marked detached. Queries
// on other threads keep being served throughout — from the old owner until
// each chunk's cutover, and from replicas during the copy window (the storage
// layer's replica fallback is the safety net); a resolution that races a
// cutover re-reads the directory and retries the new owner before degrading.
//
// Everything above the hierarchy — ProgressiveReader, ReadSession,
// serve::QueryScheduler — works against a node unchanged; remote resolution
// is transparent. Counters: fabric.local_hits counts every read served from
// a node's own tiers or cache (at the serving node), fabric.remote_reads /
// fabric.replica_fallbacks count fabric resolutions, so one remote read
// increments remote_reads once and local_hits once (the serve on the owner).
// fabric.migrations counts committed ownership transfers; the topology.epoch
// gauge mirrors ChunkDirectory::epoch().

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "fabric/chunk_directory.hpp"
#include "fabric/fabric_config.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::fabric {

/// What import_container() distributed.
struct ImportReport {
  std::size_t blocks = 0;         // blocks in the container
  std::size_t sharded = 0;        // base/delta/data blocks sent to one owner
  std::size_t replicated = 0;     // metadata/geometry copies across nodes
  std::size_t replicas = 0;       // cross-node replica copies actually placed
  std::size_t sharded_bytes = 0;  // payload bytes of the sharded blocks
};

/// What one topology change's migration actually did.
struct MigrationReport {
  std::size_t chunks_moved = 0;     // committed ownership transfers
  std::size_t bytes_moved = 0;      // payload bytes of those transfers
  std::size_t replicas_repaired = 0;  // ring-successor copies (re)placed
  std::size_t failed = 0;           // moves abandoned (no copy or no room)
};

class Fabric {
 public:
  /// Every node gets the same tier stack (`node_tiers`). The tier stack is
  /// retained so attach_node() can stamp out identical nodes later.
  Fabric(FabricOptions options, std::vector<storage::TierSpec> node_tiers);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Node-table slots, including detached ones (ids are stable; a detached
  /// node's slot is never reused).
  std::size_t node_count() const;
  storage::StorageHierarchy& node(std::size_t i);
  const FabricOptions& options() const { return options_; }
  ChunkDirectory& directory() { return directory_; }
  const ChunkDirectory& directory() const { return directory_; }

  /// Attaches an independent BlockCache with this budget/sharding to every
  /// node — each node caches its own reads, including bytes it pulled from
  /// a peer (so repeat remote reads are served locally). Nodes attached
  /// later get the same cache configuration.
  void attach_node_caches(const cache::CacheConfig& per_node);
  cache::BlockCache* node_cache(std::size_t i);

  /// Shards a container that was refactored into `staging` across the
  /// fabric. Sharded kinds (kBase, kDelta, kData) land on their directory
  /// owner's fastest fitting tier, then replica copies on the ring
  /// successor (best-effort, like replicate_below); metadata and geometry
  /// (kMesh, kCollapseLog) are replicated to every node. Refreshes the
  /// occupancy gauges when done.
  ImportReport import_container(storage::StorageHierarchy& staging,
                                const std::string& path);

  // --- Elastic topology. ----------------------------------------------------

  /// Grows the fabric by one node (same tier stack as the rest);
  /// `*id` (optional) receives its stable id. The node is seeded with the
  /// replicated metadata/geometry blocks, the chunks whose directory owner
  /// changed migrate to it, and replicas are repaired onto the new ring
  /// successors — all before this returns. Queries on other threads are
  /// served throughout.
  MigrationReport attach_node(std::uint32_t* id = nullptr);

  /// Moves every primary off node `id` and removes it from service: the node
  /// stops being a placement or replica target, then copy→cutover→retire per
  /// chunk, then replica repair onto the new ring successors, and only then
  /// is it marked detached. It keeps serving in-flight reads until that
  /// point. Its slot (and id) remain; re-attachment stamps out a fresh node
  /// with a new id. Throws for an unknown, detached, or last active node, and
  /// when the remaining nodes cannot absorb its primaries (the node then
  /// stays attached, out of the active set, serving what it still owns).
  MigrationReport detach_node(std::uint32_t id);

  /// True while node `id` is part of the fabric (attached and not yet
  /// detached). A node stays attached while detach_node() drains it.
  bool attached(std::size_t i) const;

  // --- Failure simulation. --------------------------------------------------

  /// Simulated node failure: the node drops out of routing and remote
  /// resolution, and every tier read on it fails (a full-rate fault
  /// injector), so in-flight requests degrade to replica owners too.
  void kill_node(std::size_t i);
  void revive_node(std::size_t i);
  bool alive(std::size_t i) const;

  /// Affinity routing for the query scheduler: the alive *active* node
  /// owning the most bytes of (path, var), falling back to the first alive
  /// active node (or 0 when everything is down — the query then fails like
  /// any read would). Draining and detached nodes are never selected.
  std::uint32_t route_query(const std::string& path,
                            const std::string& var) const;

  /// Monotonic fabric-wide counters, independent of the obs layer so tests
  /// can assert exact accounting with observability disabled.
  struct Stats {
    std::uint64_t local_hits = 0;          // serves from a node's own store
    std::uint64_t remote_reads = 0;        // resolved from the owner node
    std::uint64_t replica_fallbacks = 0;   // resolved from the replica owner
    std::uint64_t failed_remote_reads = 0; // no reachable copy
    std::uint64_t migrations = 0;          // committed ownership transfers
    std::uint64_t migration_failures = 0;  // abandoned moves
  };
  Stats stats() const;

  /// Publishes per-node tier occupancy gauges
  /// (fabric.node<i>.tier<t>_used_bytes) and the topology.epoch gauge;
  /// import_container() and every topology change also refresh them.
  void update_occupancy_gauges() const;

  /// Planning estimate of resolving `key` from node `from_node`: the
  /// serving peer's tier cost plus the network envelope. Pessimistic
  /// (slowest-tier + envelope) for unknown keys.
  double estimated_remote_cost(std::size_t from_node, const std::string& key,
                               std::size_t bytes) const;

  /// The directory's topology epoch (also surfaced through each node's
  /// RemoteStore so planners above the hierarchy can watch it).
  std::uint64_t topology_epoch() const { return directory_.epoch(); }

  // --- Tiering hook (src/tiering layers above fabric, so it is type-erased;
  // the TierAdvisor plugs in through Pipeline). -----------------------------

  /// Installs the listener on every node's hierarchy — current nodes now and
  /// future nodes at attach — so access heat keeps flowing across topology
  /// epochs. An empty function detaches.
  void set_node_access_listener(storage::StorageHierarchy::AccessListener l);

 private:
  /// The per-node storage::RemoteStore adapter the node's hierarchy calls.
  class NodeRemoteStore : public storage::RemoteStore {
   public:
    NodeRemoteStore(Fabric& fabric, std::size_t node)
        : fabric_(fabric), node_(node) {}
    storage::IoResult remote_read(const std::string& key,
                                  util::Bytes& out) override {
      return fabric_.remote_read_from(node_, key, out);
    }
    double estimated_read_cost(const std::string& key,
                               std::size_t bytes) const override {
      return fabric_.estimated_remote_cost(node_, key, bytes);
    }
    void note_local_hit(const std::string& key) override {
      fabric_.note_local_hit(node_, key);
    }
    std::uint64_t topology_epoch() const override {
      return fabric_.topology_epoch();
    }

   private:
    Fabric& fabric_;
    std::size_t node_;
  };

  struct Node {
    explicit Node(std::vector<storage::TierSpec> specs)
        : hierarchy(std::move(specs)) {}
    storage::StorageHierarchy hierarchy;
    std::unique_ptr<NodeRemoteStore> remote;
    std::atomic<bool> alive{true};
    std::atomic<bool> detached{false};
  };

  /// Slot pointer, or nullptr out of range. Nodes are never destroyed
  /// before the fabric, so the pointer stays valid after the shared lock is
  /// released; only the table itself needs guarding against growth.
  Node* node_ptr(std::size_t i) const;
  /// Builds a node, wires its remote store, cache (when configured) and
  /// tiering listeners, and appends it to the table; returns its id.
  std::uint32_t append_node();

  storage::IoResult remote_read_from(std::size_t from_node,
                                     const std::string& key, util::Bytes& out);
  void note_local_hit(std::size_t node, const std::string& key);

  /// Executes one plan: per chunk, copy (primary, else replica) → place on
  /// the new owner → commit_move cutover → retire the old copy (erase also
  /// invalidates its cache entries). Caller holds topology_mu_.
  MigrationReport run_migration(const RebalancePlan& plan);
  /// Ensures every recorded entry's replica copy sits on its current ring
  /// successor, dropping stale copies elsewhere. `retired` (optional) also
  /// has its stale *primary* leftovers cleaned.
  std::size_t repair_replicas(std::optional<std::uint32_t> retired);

  const FabricOptions options_;
  const std::vector<storage::TierSpec> node_tiers_;
  ChunkDirectory directory_;

  /// Guards the node table against concurrent growth (attach_node) — not
  /// the nodes themselves, which carry their own locks.
  mutable std::shared_mutex nodes_mu_;
  std::vector<std::unique_ptr<Node>> nodes_;

  /// Serializes topology changes (attach_node/detach_node), each held for
  /// its whole migration.
  std::mutex topology_mu_;

  /// Keys replicated to every node at import (metadata/geometry); a node
  /// attached later is seeded with these so it can serve immediately.
  std::mutex replicated_mu_;
  std::vector<std::string> replicated_keys_;
  std::optional<cache::CacheConfig> per_node_cache_;

  /// Tiering hook (see set_node_access_listener). hooks_mu_ is a leaf lock:
  /// holders never take another fabric mutex.
  mutable std::mutex hooks_mu_;
  storage::StorageHierarchy::AccessListener node_access_listener_;

  std::atomic<std::uint64_t> local_hits_{0};
  std::atomic<std::uint64_t> remote_reads_{0};
  std::atomic<std::uint64_t> replica_fallbacks_{0};
  std::atomic<std::uint64_t> failed_remote_reads_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> migration_failures_{0};
};

}  // namespace canopus::fabric
