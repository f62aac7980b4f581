#pragma once
// Workload-adaptive auto-tiering: the policy loop that closes heat→placement.
//
// The paper argues refactored products should live where the workload needs
// them ("data placed in the storage hierarchy according to access
// patterns"), yet until this module placement was decided once, at write
// time. The TierAdvisor closes the loop, in the shape ScaleStore uses for
// its DRAM/NVMe buffer manager — a background policy thread over decayed
// access statistics:
//
//   * A HeatTracker (tiering/heat_tracker.hpp) aggregates per-chunk access
//     heat from every read the storage layer serves (ProgressiveReader
//     fetches, cache hits, fabric remote reads — all funnel through
//     StorageHierarchy's access listener) plus the QueryScheduler's intent
//     signal (recorded per admitted query, before any byte moves).
//   * register_container() groups a container's blocks by (var, kind,
//     level) — the paper's unit of progressive refinement — so policy acts
//     on whole delta levels, not individual chunks.
//   * tick() compares each group's mean per-block heat against a hysteresis
//     band: above promote_threshold the group moves one tier up, below
//     demote_threshold one tier down, in between it stays put. Cooldown
//     ticks and a per-tick move bound keep churn bounded; an oscillating
//     workload inside the band never moves anything (the no-thrash property
//     tests pin).
//   * A promotion whose target tier lacks room (plus the `reserve`
//     headroom) first demotes that tier's coldest objects (counted as
//     evictions), each to the first lower tier with room; the group's own
//     blocks are never victims. If that cannot free enough, the group is
//     skipped (skipped_capacity). This is the only code that picks which
//     objects leave a tier: without an advisor nothing demotes, and
//     placement stays the storage layer's fastest-tier-with-room rule.
//   * The advisor keeps no record of where a block lives: it reads
//     StorageHierarchy::find, as serve::CostModel does, so a rewrite, an
//     erase or a fabric migration cannot leave it a stale copy.
//   * attach_fabric() extends all of the above to every node of a serving
//     fabric. Heat is keyed by global object names, so it survives topology
//     epochs — a chunk migrated to a new owner keeps its history.
//
// Every move goes through StorageHierarchy::migrate, which preserves the
// object's bytes exactly: placement changes are bitwise-invisible to query
// results, only timings move. Counters land on tiering.* (obs).
//
// Internally all mutable state lives in a shared_ptr<State> that the
// installed access listener captures, so a hook that outlives the advisor
// (e.g. one registered on a borrowed hierarchy) never dangles.

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "storage/hierarchy.hpp"
#include "tiering/heat_tracker.hpp"
#include "tiering/tiering_config.hpp"

namespace canopus::fabric {
class Fabric;
}  // namespace canopus::fabric

namespace canopus::tiering {

class TierAdvisor {
 public:
  /// Validates `config` (promote_threshold must exceed demote_threshold,
  /// half-life and interval must be positive) and builds the tracker. The
  /// background thread is NOT started here — call start(), or let the
  /// Pipeline do it when config.enabled is set.
  explicit TierAdvisor(TieringConfig config);
  ~TierAdvisor();  // stop()s the background thread

  TierAdvisor(const TierAdvisor&) = delete;
  TierAdvisor& operator=(const TierAdvisor&) = delete;

  /// Adds a hierarchy to the advisor's purview and installs its heat
  /// listener (StorageHierarchy::attach_access_listener). Idempotent per
  /// hierarchy. The hierarchy must not have another listener attached (last
  /// attach wins), and must outlive the advisor's ticks.
  void watch(storage::StorageHierarchy& hierarchy);

  /// Extends the purview to every attached node of `fabric` (including nodes
  /// attached later) and installs the per-node heat listener. Pass
  /// nullptr to detach (clears the hooks on the previously attached fabric).
  /// The fabric must outlive the advisor's ticks.
  void attach_fabric(fabric::Fabric* fabric);

  /// Reads `path`'s metadata from the first watched hierarchy (or fabric
  /// node) that has it and registers one policy group per (var, kind, level)
  /// over the container's base/delta/data blocks. Idempotent per path.
  /// Returns false when no watched store can read the metadata.
  bool register_container(const std::string& path);

  HeatTracker& heat();
  const HeatTracker& heat() const;

  /// One policy pass over every group and every watched hierarchy; returns
  /// the number of group moves made. Deterministic drivers (benches, tests)
  /// call this directly instead of start().
  std::size_t tick();

  /// Starts/stops the background policy thread (one tick per
  /// config.interval_seconds). Idempotent.
  void start();
  void stop();

  TieringReport report() const;
  const TieringConfig& config() const;

 private:
  struct State;
  static std::size_t tick_impl(State& s);
  /// The heat listener watch() and attach_fabric() install.
  static storage::StorageHierarchy::AccessListener access_listener(
      const std::shared_ptr<State>& s);
  void loop();

  std::shared_ptr<State> state_;

  // Background thread machinery (advisor-lifetime, not shared with hooks).
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
};

}  // namespace canopus::tiering
