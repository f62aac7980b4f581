#pragma once
// Workload-adaptive tiering knobs. Dependency-free (standard library only) so
// core::RuntimeConfig and canopus::Options can embed the struct without core
// linking against the tiering module — the same pattern as
// serve/serve_config.hpp and fabric/fabric_config.hpp.

#include <cstddef>
#include <cstdint>

namespace canopus::tiering {

/// Configuration of the heat-driven TierAdvisor
/// (<tiering enabled= half-life= promote-above= demote-below= interval=
///  max-moves= cooldown-ticks= reserve=>, src/tiering).
struct TieringConfig {
  /// Starts the advisor's background policy thread when the Pipeline creates
  /// it. Disabled, the advisor still tracks heat; moves happen only through
  /// explicit tick() calls (deterministic benches and tests drive it that
  /// way).
  bool enabled = false;
  /// Exponential-decay half-life of access heat: a key not touched for this
  /// many seconds is worth half what it was.
  double half_life_seconds = 0.5;
  /// Hysteresis band. A (var, kind, level) group whose mean per-block heat
  /// rises above promote_threshold moves one tier up; one that falls below
  /// demote_threshold moves one tier down; in between it stays put, so an
  /// oscillating workload cannot make placement thrash. Must satisfy
  /// promote_threshold > demote_threshold.
  double promote_threshold = 4.0;
  double demote_threshold = 1.0;
  /// Wall-clock period of the background policy thread's ticks.
  double interval_seconds = 0.01;
  /// Bound on group moves per tick — caps migration churn so one tick never
  /// saturates the tiers with its own traffic.
  std::size_t max_moves_per_tick = 8;
  /// Ticks a group rests after a move before it may move again (the second
  /// half of the anti-thrash story, alongside the hysteresis band).
  std::uint32_t cooldown_ticks = 2;
  /// Fraction of the promotion target tier's capacity the advisor keeps free
  /// when promoting into it: a promotion needs its bytes plus this headroom,
  /// demoting the tier's coldest objects to get it. In [0, 1).
  double reserve = 0.0;
};

/// Counter snapshot of one advisor's lifetime, returned by
/// TierAdvisor::report() and Pipeline::tiering_report().
struct TieringReport {
  std::uint64_t ticks = 0;               // policy passes executed
  std::uint64_t promotions = 0;          // group moves up-tier
  std::uint64_t demotions = 0;           // group moves down-tier (cold policy)
  std::uint64_t evictions = 0;           // objects demoted coldest-first to
                                         // make room for a promotion
  std::uint64_t skipped_cooldown = 0;    // moves suppressed by cooldown_ticks
  std::uint64_t skipped_capacity = 0;    // moves abandoned for lack of room
  std::size_t groups = 0;                // registered (var, kind, level) groups
  std::size_t hot_groups = 0;            // groups above the promote band at
                                         // the last tick
};

}  // namespace canopus::tiering
