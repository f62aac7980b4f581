#pragma once
// Exponentially decayed, sharded access-heat counters.
//
// The paper's placement story ("data placed in the storage hierarchy
// according to access patterns") needs a workload signal. HeatTracker is that
// signal: every read the storage layer serves records weight against the
// object's key, and the value decays exponentially with a configurable
// half-life, so "hot" always means *recently* hot. Keys are global object
// names (the same names the ChunkDirectory shards by), so heat survives
// topology changes: a chunk migrated to a new owner keeps its history.
//
// Sharded like obs::MetricsRegistry and cache::BlockCache: 16 shards keyed by
// FNV-1a of the key, each a small map behind its own mutex. The shard mutex
// is a leaf lock — record()/heat() never call back into storage or cache —
// so the tracker is safe to invoke from inside StorageHierarchy's read path
// (hierarchy mutex held) and from the advisor's policy pass (its state
// mutex and a hierarchy mutex held).
//
// Time is explicit: record()/heat() take `now_seconds` on the tracker's own
// monotone axis (now() supplies a steady-clock reading). Tests pass explicit
// timestamps and get bit-exact decay arithmetic, no wall clock involved.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace canopus::tiering {

class HeatTracker {
 public:
  /// `half_life_seconds` must be finite and > 0.
  explicit HeatTracker(double half_life_seconds);

  /// Folds `weight` into the key's heat at time `now_seconds`: the stored
  /// value first decays from its last stamp, then gains `weight`. Stamps
  /// never go backwards — a `now_seconds` earlier than the stored stamp is
  /// treated as the stamp itself (decay factor 1).
  void record(const std::string& key, double weight, double now_seconds);
  /// record() at now().
  void record(const std::string& key, double weight = 1.0);

  /// The key's heat decayed to `now_seconds` (0 for unknown keys). Pure read:
  /// the stored stamp is not advanced.
  double heat(const std::string& key, double now_seconds) const;
  /// heat() at now().
  double heat(const std::string& key) const;

  /// Seconds elapsed on the tracker's monotone axis (steady clock since
  /// construction) — the `now_seconds` the convenience overloads use.
  double now() const;

  /// Number of keys with recorded heat.
  std::size_t tracked() const;

  double half_life_seconds() const { return half_life_; }

 private:
  struct Entry {
    double value = 0.0;
    double stamp = 0.0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(const std::string& key) const;
  /// 2^(-dt / half_life); 1 when dt <= 0.
  double decay(double dt) const;

  double half_life_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace canopus::tiering
