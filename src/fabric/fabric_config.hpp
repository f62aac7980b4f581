#pragma once
// Cluster-fabric knobs. Dependency-free (standard library only) so
// core::RuntimeConfig can embed the struct without core linking against the
// fabric module — the same pattern as serve/serve_config.hpp.

#include <cstddef>
#include <cstdint>

namespace canopus::fabric {

/// How refactored chunks are assigned to owner nodes.
enum class Partition : std::uint8_t {
  kHash = 0,         // FNV-1a of the object key, modulo node count
  kMortonRange = 1,  // contiguous chunk-index ranges; chunks are stored in
                     // Morton order, so a range is a spatially coherent tile
};

/// Configuration of a simulated N-node serving fabric
/// (<fabric nodes= partition= remote-us= remote-bw=>, src/fabric).
struct FabricOptions {
  /// Number of simulated nodes, each with its own StorageHierarchy and
  /// BlockCache slice. 1 degenerates to single-node serving (no remote
  /// reads, no replicas).
  std::size_t nodes = 1;
  Partition partition = Partition::kMortonRange;
  /// Per-message network latency charged (on the simulated clock) to every
  /// read that crosses nodes — the fabric's message-channel envelope. The
  /// XML attribute remote-us is in microseconds.
  double remote_latency_seconds = 200e-6;
  /// Remote transfer bandwidth in bytes/second (remote-bw, e.g. "1GB/s").
  double remote_bandwidth = 1e9;
  // Moving blocks between a node's tiers is the tier advisor's job, by
  // access heat (<tiering>, tiering/tiering_config.hpp); the fabric places.
};

}  // namespace canopus::fabric
