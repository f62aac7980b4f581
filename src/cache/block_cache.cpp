#include "cache/block_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"
#include "util/timer.hpp"

namespace canopus::cache {

namespace {

/// Payload bytes of a decoded array, the unit the budget is charged in.
std::size_t array_charge(const std::vector<double>& values) {
  return values.size() * sizeof(double);
}

std::uint32_t array_crc(const std::vector<double>& values) {
  return util::Crc32::compute(util::BytesView(
      reinterpret_cast<const std::byte*>(values.data()), array_charge(values)));
}

/// Obs handles, resolved once (registry lookup takes a mutex; updates through
/// the cached references are lock-free and no-ops while obs is disabled).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& invalidations;
  obs::Counter& single_flight_waits;
  obs::Gauge& occupancy;
  obs::Histogram& admission_us;

  static CacheMetrics& get() {
    static CacheMetrics m{
        obs::MetricsRegistry::global().counter("cache.hits"),
        obs::MetricsRegistry::global().counter("cache.misses"),
        obs::MetricsRegistry::global().counter("cache.evictions"),
        obs::MetricsRegistry::global().counter("cache.invalidations"),
        obs::MetricsRegistry::global().counter("cache.single_flight_waits"),
        obs::MetricsRegistry::global().gauge("cache.occupancy_bytes"),
        obs::MetricsRegistry::global().histogram("cache.admission_us")};
    return m;
  }
};

}  // namespace

BlockCache::BlockCache(CacheConfig config) : config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = config_.budget_bytes / config_.shards;
}

BlockCache::Shard& BlockCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const BlockCache::Shard& BlockCache::shard_for(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void BlockCache::drop_entry_locked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it) {
  shard.bytes -= it->second.charge;
  occupancy_.fetch_sub(it->second.charge, std::memory_order_relaxed);
  shard.lru.erase(it->second.lru_pos);
  shard.map.erase(it);
  if (obs::enabled()) {
    CacheMetrics::get().occupancy.set(
        static_cast<std::int64_t>(occupancy_bytes()));
  }
}

bool BlockCache::admit_locked(Shard& shard, const std::string& key,
                              Entry entry) {
  if (entry.charge > shard_budget_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Replacing a resident entry must not double-charge.
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    drop_entry_locked(shard, it);
  }
  // Evict least-recently-used entries until the new one fits the shard's
  // slice of the budget; the occupancy invariant (sum of shard bytes <=
  // budget) holds at every instant because each shard stays within its slice.
  while (shard.bytes + entry.charge > shard_budget_ && !shard.lru.empty()) {
    auto victim = shard.map.find(shard.lru.back());
    CANOPUS_ASSERT(victim != shard.map.end());
    drop_entry_locked(shard, victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) CacheMetrics::get().evictions.add(1);
  }
  shard.lru.push_front(key);
  entry.lru_pos = shard.lru.begin();
  shard.bytes += entry.charge;
  occupancy_.fetch_add(entry.charge, std::memory_order_relaxed);
  shard.map.emplace(key, std::move(entry));
  if (obs::enabled()) {
    CacheMetrics::get().occupancy.set(
        static_cast<std::int64_t>(occupancy_bytes()));
  }
  return true;
}

void BlockCache::note_hit(const Entry& entry, const std::string& key) const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) CacheMetrics::get().hits.add(1);
  if (config_.verify_hits) {
    const std::uint32_t crc =
        entry.blob ? util::Crc32::compute(*entry.blob) : array_crc(*entry.array);
    CANOPUS_CHECK(crc == entry.crc,
                  "cache entry '" + key + "' failed its hit-time CRC check");
  }
}

template <typename Value, typename Result>
Result BlockCache::get_or_load(const std::string& key,
                               const std::function<Value()>& loader) {
  constexpr bool is_blob = std::is_same_v<Value, util::Bytes>;
  Shard& shard = shard_for(key);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::scoped_lock lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      Entry& entry = it->second;
      const bool type_matches =
          is_blob ? entry.blob != nullptr : entry.array != nullptr;
      if (type_matches) {
        shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos);
        note_hit(entry, key);
        if constexpr (is_blob) {
          return {entry.blob, Source::kHit};
        } else {
          return {entry.array, Source::kHit};
        }
      }
      // A key reused across entry kinds is a caller bug in spirit, but stay
      // safe: treat it as a miss and let the reload replace the entry.
      drop_entry_locked(shard, it);
    }
    auto [fit, inserted] = shard.flights.try_emplace(key);
    if (inserted) {
      fit->second = std::make_shared<Flight>();
      leader = true;
    }
    flight = fit->second;
  }

  if (!leader) {
    waits_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) CacheMetrics::get().single_flight_waits.add(1);
    std::unique_lock fl(flight->mu);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    if constexpr (is_blob) {
      CANOPUS_CHECK(flight->blob != nullptr,
                    "single-flight result for '" + key + "' is not a blob");
      return {flight->blob, Source::kShared};
    } else {
      CANOPUS_CHECK(flight->array != nullptr,
                    "single-flight result for '" + key + "' is not an array");
      return {flight->array, Source::kShared};
    }
  }

  // Leader: run the loader outside every cache lock so it may take slower
  // locks (the storage hierarchy's) or run on pool workers freely.
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) CacheMetrics::get().misses.add(1);
  util::WallTimer admission_timer;
  std::exception_ptr error;
  std::shared_ptr<const Value> value;
  Entry entry;
  try {
    value = std::make_shared<const Value>(loader());
    if constexpr (is_blob) {
      entry.blob = value;
      entry.charge = value->size();
      entry.crc = util::Crc32::compute(*value);
    } else {
      entry.array = value;
      entry.charge = array_charge(*value);
      entry.crc = array_crc(*value);
    }
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::scoped_lock lock(shard.mu);
    // Admit only verified results of still-valid flights: a loader that
    // threw caches nothing, and an invalidate() racing the load cancels
    // admission (the waiters still get the value they asked for, but the
    // cache forgets it immediately).
    if (!error && !flight->cancelled) {
      admit_locked(shard, key, std::move(entry));
    }
    auto fit = shard.flights.find(key);
    if (fit != shard.flights.end() && fit->second == flight) {
      shard.flights.erase(fit);
    }
  }
  {
    std::scoped_lock fl(flight->mu);
    if constexpr (is_blob) {
      flight->blob = error ? nullptr : value;
    } else {
      flight->array = error ? nullptr : value;
    }
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  if (obs::enabled()) {
    CacheMetrics::get().admission_us.observe(admission_timer.seconds() * 1e6);
  }
  if constexpr (is_blob) {
    return {value, Source::kLoaded};
  } else {
    return {value, Source::kLoaded};
  }
}

BlockCache::BlobResult BlockCache::get_or_load_blob(
    const std::string& key, const std::function<util::Bytes()>& loader) {
  return get_or_load<util::Bytes, BlobResult>(key, loader);
}

BlockCache::ArrayResult BlockCache::get_or_load_array(
    const std::string& key, const std::function<std::vector<double>()>& loader) {
  return get_or_load<std::vector<double>, ArrayResult>(key, loader);
}

BlockCache::BlobPtr BlockCache::lookup_blob(const std::string& key) {
  Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mu);
  if (auto it = shard.map.find(key); it != shard.map.end() && it->second.blob) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    note_hit(it->second, key);
    return it->second.blob;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) CacheMetrics::get().misses.add(1);
  return nullptr;
}

bool BlockCache::contains(const std::string& key) const {
  const Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mu);
  return shard.map.find(key) != shard.map.end();
}

BlockCache::Residency BlockCache::probe(const std::string& key,
                                        const std::string& decoded_alias) const {
  return Residency{contains(key), contains(decoded_alias)};
}

void BlockCache::invalidate(const std::string& key) {
  Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mu);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    drop_entry_locked(shard, it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) CacheMetrics::get().invalidations.add(1);
  }
  if (auto fit = shard.flights.find(key); fit != shard.flights.end()) {
    fit->second->cancelled = true;
  }
}

std::size_t BlockCache::invalidate_prefix(const std::string& prefix) {
  std::size_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::scoped_lock lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        drop_entry_locked(shard, it++);
        ++dropped;
      } else {
        ++it;
      }
    }
    for (auto& [key, flight] : shard.flights) {
      if (key.compare(0, prefix.size(), prefix) == 0) flight->cancelled = true;
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  if (obs::enabled() && dropped > 0) {
    CacheMetrics::get().invalidations.add(dropped);
  }
  return dropped;
}

void BlockCache::clear() { invalidate_prefix(""); }

BlockCache::Stats BlockCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.single_flight_waits = waits_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace canopus::cache
