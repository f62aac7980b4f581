#pragma once
// Chunk -> owner-node directory of the serving fabric.
//
// Every sharded product block (base, delta chunk, plain data) has exactly
// one owner node; with more than one node it also has a replica owner — the
// next node in ring order, mirroring the intra-hierarchy replica placement
// the storage layer already uses (StorageHierarchy::replicate_below). The
// partition functions are pure and static so the property suite can assert
// totality, disjointness, and coverage without building a cluster.
//
// Elastic topology: the directory separates *node identity* from *partition
// slot*. Nodes carry stable ids; the active set lists the ids that currently
// participate in ownership. attach_node()/detach_node() change the active
// set, bump the topology epoch, and return an incremental RebalancePlan —
// only the entries whose target owner changed. Recorded owners stay put until
// the fabric finishes each copy and calls commit_move(): reads keep resolving
// to the old owner until cutover, so a migration in flight never makes a key
// unreachable.
//
// Invariants (tests/fabric_test.cpp and tests/elastic_test.cpp pin them):
//   * totality — owner_for() maps every (key, chunk, chunk_count) to exactly
//     one active node;
//   * coverage — under kMortonRange with nodes <= chunk_count, every node
//     owns at least one chunk, and the per-node ranges are contiguous and
//     disjoint;
//   * incremental plans — attach/detach plans contain exactly the entries
//     whose target owner differs from the recorded owner, and nothing else.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fabric_config.hpp"

namespace canopus::fabric {

/// Where a chunk lives: its owner node and (in multi-node fabrics) the node
/// holding the replica copy under StorageHierarchy::replica_key.
struct ChunkLocation {
  std::uint32_t owner = 0;
  std::optional<std::uint32_t> replica;
};

/// One pending ownership transfer of an incremental rebalance: copy `key`
/// from node `from` to node `to`, then commit_move() to cut reads over.
struct ChunkMove {
  std::string key;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::size_t bytes = 0;
};

/// What one topology change asks the fabric to migrate.
struct RebalancePlan {
  std::vector<ChunkMove> moves;
};

class ChunkDirectory {
 public:
  ChunkDirectory(std::size_t nodes, Partition partition);

  /// FNV-1a of `key`, modulo `nodes`.
  static std::uint32_t hash_owner(const std::string& key, std::size_t nodes);

  /// Contiguous-range assignment: chunk c of chunk_count maps to
  /// c * nodes / chunk_count. Total, disjoint, and covering for
  /// nodes <= chunk_count.
  static std::uint32_t range_owner(std::uint32_t chunk,
                                   std::uint32_t chunk_count,
                                   std::size_t nodes);

  /// Ring replica placement: the next node after `owner`, or nullopt when
  /// the fabric has a single node.
  static std::optional<std::uint32_t> replica_of(std::uint32_t owner,
                                                 std::size_t nodes);

  /// The owner this directory's partition assigns (pure; does not record).
  /// kMortonRange falls back to hash_owner for single-chunk block groups
  /// (bases, plain data) so those still spread across the fabric. The
  /// partition computes a slot among the active nodes, then maps the slot to
  /// that node's stable id.
  std::uint32_t owner_for(const std::string& key, std::uint32_t chunk,
                          std::uint32_t chunk_count) const;

  /// Records `key` and returns its owner.
  std::uint32_t assign(const std::string& key, std::uint32_t chunk,
                       std::uint32_t chunk_count, std::size_t bytes);

  /// Location of a recorded key, or nullopt for unknown keys. The replica is
  /// the next *active* node after the owner in ring order.
  std::optional<ChunkLocation> lookup(const std::string& key) const;

  // --- Elastic topology (incremental). -------------------------------------

  /// Adds node `id` to the active set and returns the incremental plan:
  /// exactly the recorded entries whose target owner changed. Owners are NOT
  /// flipped here — the fabric copies each chunk and calls commit_move().
  RebalancePlan attach_node(std::uint32_t id);

  /// Removes node `id` from the active set (it stops being a target for
  /// owner_for / new assignments / replicas) and returns the drain plan.
  /// Entries currently owned by `id` keep resolving to it until the fabric
  /// commits their moves, so in-flight reads still find the copy.
  RebalancePlan detach_node(std::uint32_t id);

  /// Recomputes targets for the current active set without changing it and
  /// returns the incremental plan — what is still mis-placed after a
  /// migration pass abandoned some moves.
  RebalancePlan plan_rebalance();

  /// Cutover: records that `key` now lives on `new_owner`. Reads resolve to
  /// the new owner from this call on.
  void commit_move(const std::string& key, std::uint32_t new_owner);

  /// Monotone topology epoch: bumped by attach_node() and detach_node() —
  /// the events after which cached owner resolutions or cost-model residency
  /// probes may be stale. Planners snapshot it and re-plan when it moves.
  /// commit_move() does not bump it (cutovers execute *under* the epoch that
  /// planned them; lookup() is the live source of truth for who holds a key).
  std::uint64_t epoch() const;

  /// Stable ids of the nodes currently participating in ownership.
  std::vector<std::uint32_t> active_nodes() const;
  bool is_active(std::uint32_t id) const;

  std::size_t node_count() const;
  std::size_t size() const;

  /// Point-in-time view of one recorded entry (for the fabric's replica
  /// repair sweep after a topology change).
  struct EntryView {
    std::string key;
    std::uint32_t owner = 0;
    std::size_t bytes = 0;
  };
  std::vector<EntryView> snapshot() const;

  /// Bytes owned per node across all recorded entries.
  std::vector<std::size_t> owned_bytes() const;
  /// Bytes owned per node among entries whose key starts with `prefix` —
  /// the affinity signal the query router uses.
  std::vector<std::size_t> owned_bytes_for_prefix(
      const std::string& prefix) const;

 private:
  struct Entry {
    std::uint32_t chunk = 0;
    std::uint32_t chunk_count = 1;
    std::size_t bytes = 0;
    std::uint32_t owner = 0;
  };

  std::uint32_t owner_for_locked(const std::string& key, std::uint32_t chunk,
                                 std::uint32_t chunk_count) const;
  RebalancePlan plan_locked() const;

  mutable std::mutex mu_;
  Partition partition_;
  std::vector<std::uint32_t> active_;  // sorted stable node ids
  std::uint64_t epoch_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace canopus::fabric
