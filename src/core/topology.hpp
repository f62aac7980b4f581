#pragma once
// canopus::Topology — a consistent point-in-time snapshot of the serving
// cluster, taken by Pipeline::topology().
//
// Plain data on purpose (strings + integers, no fabric types): callers
// inspect or log it without linking the fabric module, and a snapshot stays
// meaningful after the topology it describes has moved on — compare `epoch`
// against a fresh snapshot (or the topology.epoch gauge) to find out whether
// it has. Node ids are stable for the fabric's lifetime: a detached node's
// entry stays in `nodes` with active=false rather than renumbering the rest.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace canopus {

struct Topology {
  struct Node {
    std::uint32_t id = 0;       // stable slot id (never reused)
    bool alive = true;          // not failure-simulated down (kill_node)
    bool active = true;         // in the directory's active set (serves and
                                // owns chunks; false once detached)
    std::vector<std::string> tiers;  // tier names, fastest first
    std::uint64_t owned_bytes = 0;   // directory-owned chunk payload bytes
    std::uint64_t used_bytes = 0;    // bytes resident across the node's tiers
  };

  /// ChunkDirectory::epoch() at snapshot time; bumped by every node attach
  /// and detach, NOT by individual chunk cutovers.
  std::uint64_t epoch = 0;
  /// Committed ownership transfers so far (Fabric::Stats::migrations).
  std::uint64_t migrations = 0;
  /// Sharded chunk groups the directory tracks.
  std::size_t chunk_groups = 0;
  std::vector<Node> nodes;

  /// Nodes currently in service (active && alive).
  std::size_t active_nodes() const {
    std::size_t n = 0;
    for (const auto& node : nodes) {
      if (node.active && node.alive) ++n;
    }
    return n;
  }
};

}  // namespace canopus
