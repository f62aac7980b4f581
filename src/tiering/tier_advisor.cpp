#include "tiering/tier_advisor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adios/bp.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace canopus::tiering {

namespace {

void count_tiering(const char* name, std::uint64_t n) {
  if (n == 0 || !obs::enabled()) return;
  obs::MetricsRegistry::global().counter(std::string("tiering.") + name).add(n);
}

std::size_t free_bytes(const storage::StorageHierarchy& h, std::size_t tier) {
  const auto [used, capacity] = h.tier_usage(tier);
  return capacity - std::min(used, capacity);
}

/// Demotes the coldest objects on `tier` of `h`, each to the first lower tier
/// with room, until at least `room` bytes are free there or no candidate is
/// left; returns the number demoted. Keys for which `keep(key)` holds (the
/// group being promoted) are never victims. Runs inside tick(), so locks
/// come in the documented order: State::mu (held by tick), then the
/// hierarchy mutex, then the tracker's shard locks. A key that races away
/// mid-pass just fails its migrate.
template <typename Keep>
std::size_t demote_coldest(const HeatTracker& tracker,
                           storage::StorageHierarchy& h, std::size_t tier,
                           std::size_t room, const Keep& keep) {
  std::vector<std::pair<double, std::string>> victims;
  const double now = tracker.now();
  for (std::string& key : h.keys_on_tier(tier)) {
    if (!keep(key)) victims.emplace_back(tracker.heat(key, now), std::move(key));
  }
  // Coldest first; ties broken by key so victim order is deterministic.
  std::sort(victims.begin(), victims.end());
  std::size_t demoted = 0;
  for (const auto& [heat, key] : victims) {
    if (free_bytes(h, tier) >= room) break;
    for (std::size_t lower = tier + 1; lower < h.tier_count(); ++lower) {
      try {
        h.migrate(key, lower);
        ++demoted;
        break;
      } catch (const Error&) {
        // no room on this tier / key moved or vanished — try the next one
      }
    }
  }
  return demoted;
}

}  // namespace

// All mutable advisor state. The access listener captures the shared_ptr,
// never the advisor, so a hook left on a borrowed hierarchy or fabric cannot
// dangle after the advisor is destroyed.
//
// Lock order (acyclic): mu → hierarchy mutex → tracker shard mu. The
// listener fires under a hierarchy mutex and takes only the shard lock.
struct TierAdvisor::State {
  explicit State(TieringConfig c)
      : config(c), tracker(c.half_life_seconds) {}

  const TieringConfig config;
  HeatTracker tracker;

  // One policy unit: every block of one (path, var, kind, level) — the
  // paper's unit of progressive refinement. Policy moves whole groups.
  struct Member {
    std::string key;
    std::size_t bytes = 0;
  };
  struct Group {
    std::string path;
    std::string var;
    adios::BlockKind kind = adios::BlockKind::kData;
    std::uint32_t level = 0;
    std::vector<Member> members;
    std::uint64_t last_move_tick = 0;
    bool moved_before = false;
  };

  mutable std::mutex mu;  // guards groups/watched/fabric/tick bookkeeping
  std::vector<Group> groups;
  std::unordered_set<std::string> registered_paths;
  std::vector<storage::StorageHierarchy*> watched;
  fabric::Fabric* fabric = nullptr;
  std::uint64_t tick_count = 0;
  std::size_t groups_count = 0;
  std::size_t hot_groups = 0;

  std::atomic<std::uint64_t> promotions{0};
  std::atomic<std::uint64_t> demotions{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> skipped_cooldown{0};
  std::atomic<std::uint64_t> skipped_capacity{0};

  /// Every hierarchy currently in the purview: standalone watched ones plus
  /// the fabric's live (attached, alive) nodes. Caller holds `mu`.
  std::vector<storage::StorageHierarchy*> targets() const {
    std::vector<storage::StorageHierarchy*> out = watched;
    if (fabric != nullptr) {
      for (std::size_t i = 0; i < fabric->node_count(); ++i) {
        if (fabric->attached(i) && fabric->alive(i)) {
          out.push_back(&fabric->node(i));
        }
      }
    }
    return out;
  }
};

TierAdvisor::TierAdvisor(TieringConfig config) {
  CANOPUS_CHECK(std::isfinite(config.half_life_seconds) &&
                    config.half_life_seconds > 0.0,
                "tier advisor: half_life_seconds must be finite and > 0");
  CANOPUS_CHECK(std::isfinite(config.interval_seconds) &&
                    config.interval_seconds > 0.0,
                "tier advisor: interval_seconds must be finite and > 0");
  CANOPUS_CHECK(config.promote_threshold > config.demote_threshold,
                "tier advisor: promote_threshold must be > demote_threshold "
                "(inverted hysteresis band)");
  CANOPUS_CHECK(config.max_moves_per_tick >= 1,
                "tier advisor: max_moves_per_tick must be >= 1");
  CANOPUS_CHECK(config.reserve >= 0.0 && config.reserve < 1.0,
                "tier advisor: reserve must be in [0, 1)");
  state_ = std::make_shared<State>(config);
}

TierAdvisor::~TierAdvisor() { stop(); }

storage::StorageHierarchy::AccessListener TierAdvisor::access_listener(
    const std::shared_ptr<State>& s) {
  return [s](const std::string& key, std::size_t bytes) {
    (void)bytes;
    s->tracker.record(key, 1.0);
  };
}

void TierAdvisor::watch(storage::StorageHierarchy& hierarchy) {
  {
    std::scoped_lock lock(state_->mu);
    for (storage::StorageHierarchy* h : state_->watched) {
      if (h == &hierarchy) return;
    }
    state_->watched.push_back(&hierarchy);
  }
  hierarchy.attach_access_listener(access_listener(state_));
}

void TierAdvisor::attach_fabric(fabric::Fabric* fabric) {
  const std::shared_ptr<State> s = state_;
  fabric::Fabric* previous = nullptr;
  {
    std::scoped_lock lock(s->mu);
    previous = s->fabric;
    if (previous == fabric) return;
    s->fabric = fabric;
  }
  if (previous != nullptr) previous->set_node_access_listener({});
  if (fabric == nullptr) return;
  // The fabric applies it to every current node and to nodes attached later,
  // so heat keeps flowing across topology epochs.
  fabric->set_node_access_listener(access_listener(s));
}

bool TierAdvisor::register_container(const std::string& path) {
  State& s = *state_;
  std::scoped_lock lock(s.mu);
  if (s.registered_paths.count(path) != 0) return true;
  for (storage::StorageHierarchy* h : s.targets()) {
    std::vector<State::Group> groups;
    try {
      const adios::BpReader reader(*h, path);
      // Keyed (var, kind, level) so iteration — and therefore policy order —
      // is deterministic regardless of metadata layout.
      std::map<std::tuple<std::string, int, std::uint32_t>, State::Group>
          by_unit;
      for (const std::string& var : reader.variables()) {
        const adios::VarInfo info = reader.inq_var(var);
        for (const adios::BlockRecord& b : info.blocks) {
          if (b.kind != adios::BlockKind::kBase &&
              b.kind != adios::BlockKind::kDelta &&
              b.kind != adios::BlockKind::kData) {
            continue;  // geometry/index blocks are replicated, not tiered
          }
          State::Group& g =
              by_unit[{var, static_cast<int>(b.kind), b.level}];
          if (g.members.empty()) {
            g.path = path;
            g.var = var;
            g.kind = b.kind;
            g.level = b.level;
          }
          g.members.push_back(
              {b.object_key, static_cast<std::size_t>(b.stored_bytes)});
        }
      }
      for (auto& [unit, group] : by_unit) groups.push_back(std::move(group));
    } catch (const Error&) {
      continue;  // this store lacks the metadata; try the next one
    }
    if (groups.empty()) continue;
    for (State::Group& g : groups) s.groups.push_back(std::move(g));
    s.registered_paths.insert(path);
    s.groups_count = s.groups.size();
    return true;
  }
  return false;
}

HeatTracker& TierAdvisor::heat() { return state_->tracker; }
const HeatTracker& TierAdvisor::heat() const { return state_->tracker; }

std::size_t TierAdvisor::tick() { return tick_impl(*state_); }

std::size_t TierAdvisor::tick_impl(State& s) {
  std::scoped_lock lock(s.mu);
  ++s.tick_count;
  const double now = s.tracker.now();
  const std::vector<storage::StorageHierarchy*> targets = s.targets();
  std::size_t moves = 0;
  std::size_t hot = 0;
  std::uint64_t promoted = 0;
  std::uint64_t demoted = 0;
  std::uint64_t evicted = 0;
  std::uint64_t skipped_cool = 0;
  std::uint64_t skipped_cap = 0;

  for (State::Group& g : s.groups) {
    if (g.members.empty()) continue;
    if (moves >= s.config.max_moves_per_tick) break;

    double sum = 0.0;
    for (const State::Member& m : g.members) {
      sum += s.tracker.heat(m.key, now);
    }
    const double mean = sum / static_cast<double>(g.members.size());
    const bool want_up = mean >= s.config.promote_threshold;
    const bool want_down = mean <= s.config.demote_threshold;
    if (want_up) ++hot;
    if (!want_up && !want_down) continue;  // inside the hysteresis band

    if (g.moved_before &&
        s.tick_count - g.last_move_tick <= s.config.cooldown_ticks) {
      ++skipped_cool;
      continue;
    }

    bool moved_group = false;
    for (storage::StorageHierarchy* h : targets) {
      if (moves >= s.config.max_moves_per_tick) break;
      // This hierarchy's slice of the group, at live residency.
      std::vector<std::pair<const State::Member*, std::size_t>> local;
      std::size_t cur = 0;
      for (const State::Member& m : g.members) {
        if (const std::optional<std::size_t> t = h->find(m.key)) {
          local.emplace_back(&m, *t);
          cur = std::max(cur, *t);
        }
      }
      if (local.empty()) continue;

      if (want_up) {
        if (cur == 0) continue;  // already on the fastest tier here
        const std::size_t target = cur - 1;
        std::size_t needed = 0;
        for (const auto& [m, t] : local) {
          if (t > target) needed += m->bytes;
        }
        if (needed == 0) continue;
        const std::size_t capacity = h->tier_usage(target).second;
        const std::size_t room =
            needed + static_cast<std::size_t>(s.config.reserve *
                                              static_cast<double>(capacity));
        if (free_bytes(*h, target) < room) {
          evicted += demote_coldest(
              s.tracker, *h, target, room, [&g](const std::string& key) {
                return std::any_of(
                    g.members.begin(), g.members.end(),
                    [&key](const State::Member& m) { return m.key == key; });
              });
        }
        bool ok = free_bytes(*h, target) >= room;
        if (ok) {
          try {
            for (const auto& [m, t] : local) {
              if (t > target) h->migrate(m->key, target);
            }
          } catch (const Error&) {
            // A concurrent write took the room, or the source tier faulted.
            ok = false;
          }
        }
        if (ok) {
          ++promoted;
          ++moves;
          moved_group = true;
        } else {
          // No room (the coldest-first pass could not free enough, or a
          // concurrent write took what it freed) or a faulting source tier:
          // skip the group like a failed demotion, so no exception reaches
          // the policy thread.
          ++skipped_cap;
        }
      } else {  // want_down
        if (cur + 1 >= h->tier_count()) continue;  // already at the bottom
        const std::size_t target = cur + 1;
        bool any = false;
        for (const auto& [m, t] : local) {
          if (t >= target) continue;
          try {
            h->migrate(m->key, target);
            any = true;
          } catch (const Error&) {
            ++skipped_cap;  // no room below (or the key raced away)
          }
        }
        if (any) {
          ++demoted;
          ++moves;
          moved_group = true;
        }
      }
    }
    if (moved_group) {
      g.last_move_tick = s.tick_count;
      g.moved_before = true;
    }
  }

  s.hot_groups = hot;
  s.groups_count = s.groups.size();
  s.promotions.fetch_add(promoted, std::memory_order_relaxed);
  s.demotions.fetch_add(demoted, std::memory_order_relaxed);
  s.evictions.fetch_add(evicted, std::memory_order_relaxed);
  s.skipped_cooldown.fetch_add(skipped_cool, std::memory_order_relaxed);
  s.skipped_capacity.fetch_add(skipped_cap, std::memory_order_relaxed);
  count_tiering("promotions", promoted);
  count_tiering("demotions", demoted);
  count_tiering("evictions", evicted);
  count_tiering("skipped_cooldown", skipped_cool);
  count_tiering("skipped_capacity", skipped_cap);
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("tiering.groups").set(static_cast<std::int64_t>(s.groups_count));
    reg.gauge("tiering.hot_groups").set(static_cast<std::int64_t>(hot));
  }
  return moves;
}

void TierAdvisor::start() {
  std::scoped_lock lock(thread_mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void TierAdvisor::stop() {
  {
    std::scoped_lock lock(thread_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  thread_cv_.notify_all();
  thread_.join();
  std::scoped_lock lock(thread_mu_);
  running_ = false;
}

void TierAdvisor::loop() {
  const auto interval = std::chrono::duration<double>(
      state_->config.interval_seconds);
  std::unique_lock lock(thread_mu_);
  for (;;) {
    thread_cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    if (stop_requested_) return;
    lock.unlock();
    tick();
    lock.lock();
  }
}

TieringReport TierAdvisor::report() const {
  const State& s = *state_;
  TieringReport out;
  out.promotions = s.promotions.load(std::memory_order_relaxed);
  out.demotions = s.demotions.load(std::memory_order_relaxed);
  out.evictions = s.evictions.load(std::memory_order_relaxed);
  out.skipped_cooldown = s.skipped_cooldown.load(std::memory_order_relaxed);
  out.skipped_capacity = s.skipped_capacity.load(std::memory_order_relaxed);
  std::scoped_lock lock(s.mu);
  out.ticks = s.tick_count;
  out.groups = s.groups_count;
  out.hot_groups = s.hot_groups;
  return out;
}

const TieringConfig& TierAdvisor::config() const { return state_->config; }

}  // namespace canopus::tiering
