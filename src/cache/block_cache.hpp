#pragma once
// Shared, memory-budgeted block cache between readers and the storage
// hierarchy.
//
// Canopus' elasticity story assumes many analytics clients progressively
// pulling the same base + delta products; without a cache every reader pays
// the slow tiers again for bytes a sibling fetched moments ago. BlockCache
// is the one shared copy: a thread-safe, sharded LRU with a byte budget that
// holds two kinds of entry —
//
//   * compressed tier blobs, keyed by the hierarchy object key of the
//     product/chunk (StorageHierarchy::read fronts itself with these), and
//   * decoded level arrays (vectors of doubles), keyed by a "#decoded"
//     alias of the chunk's object key, so sibling sessions skip even the
//     decompression of a chunk another session already decoded.
//
// Loads are single-flight: when N readers miss on the same key at once,
// exactly one runs the loader (the tier fetch / the decode) and the other
// N-1 block on its result instead of issuing duplicate slow-tier I/O. A
// loader that throws admits nothing — corrupt or unreadable blobs can never
// poison the cache — and its waiters see the exception; latecomers retry
// with a fresh flight. invalidate() is immediate: it drops the resident
// entry AND cancels admission of any in-flight load of that key, so no
// entry is ever served after its invalidation.
//
// Every admitted payload is stamped with its CRC-32 on admission (the same
// checksum the storage blob frames use), which both records what was
// verified at the I/O boundary and, with Config::verify_hits, lets tests
// re-verify each hit against in-memory corruption.
//
// Concurrency: keys hash onto one of Config::shards independent shards,
// each with its own mutex, map, and LRU list; the budget is split evenly
// across shards so occupancy can never exceed the byte budget no matter the
// interleaving. Loaders always run outside every cache lock (lock order is
// caller locks -> shard lock, never the reverse), so a loader may safely
// take the storage hierarchy's lock or run on a thread-pool worker.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/byte_buffer.hpp"

namespace canopus::cache {

struct CacheConfig {
  /// Total byte budget across all entries (payload bytes; the fixed
  /// per-entry bookkeeping is not charged). Entries larger than a shard's
  /// slice of the budget are served but never admitted.
  std::size_t budget_bytes = 64ull << 20;
  /// Number of independent lock shards (clamped to >= 1).
  std::size_t shards = 8;
  /// Re-verify the stored CRC-32 on every hit (tests / paranoid deployments;
  /// the default trusts DRAM once admission verified the bytes).
  bool verify_hits = false;
};

class BlockCache {
 public:
  using BlobPtr = std::shared_ptr<const util::Bytes>;
  using ArrayPtr = std::shared_ptr<const std::vector<double>>;

  /// How a get_or_load call obtained its value.
  enum class Source : std::uint8_t {
    kHit = 0,     // already resident
    kLoaded = 1,  // this caller ran the loader (single-flight leader)
    kShared = 2,  // waited on another caller's in-flight load
  };

  struct BlobResult {
    BlobPtr blob;
    Source source = Source::kHit;
  };
  struct ArrayResult {
    ArrayPtr array;
    Source source = Source::kHit;
  };

  /// Monotonic event counters (independent of the obs layer, so tests can
  /// assert them with observability disabled).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t single_flight_waits = 0;
    std::uint64_t rejected = 0;  // loads too large for a shard's budget slice
  };

  explicit BlockCache(CacheConfig config = {});

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the cached blob for `key`, or runs `loader` exactly once across
  /// all concurrent callers and admits its (CRC-stamped) result. A throwing
  /// loader admits nothing and rethrows to the leader and every waiter.
  BlobResult get_or_load_blob(const std::string& key,
                              const std::function<util::Bytes()>& loader);

  /// Decoded-array flavor of get_or_load_blob; charged at value bytes.
  ArrayResult get_or_load_array(
      const std::string& key,
      const std::function<std::vector<double>()>& loader);

  /// Resident blob or nullptr; counts a hit or a miss.
  BlobPtr lookup_blob(const std::string& key);

  /// True when `key` is resident (no stat side effects, no LRU touch).
  bool contains(const std::string& key) const;

  /// Planning probe for the serve-layer cost model: residency of a tier blob
  /// and its decoded alias (StorageHierarchy::decoded_alias(key)) in one
  /// call. Like contains(), stat- and LRU-neutral — estimating a query's
  /// cost must not perturb eviction order or hit rates.
  struct Residency {
    bool blob = false;     // framed tier bytes resident (I/O is free)
    bool decoded = false;  // decoded double array resident (decode is free)
  };
  Residency probe(const std::string& key,
                  const std::string& decoded_alias) const;

  /// Drops `key` immediately and cancels admission of any in-flight load of
  /// it. After this returns no caller can be served the pre-invalidation
  /// value from the cache.
  void invalidate(const std::string& key);

  /// Invalidates every resident key starting with `prefix` (O(entries);
  /// meant for container-level invalidation, not hot paths). Returns the
  /// number of entries dropped. In-flight loads are cancelled likewise.
  std::size_t invalidate_prefix(const std::string& prefix);

  /// Drops everything (counts as invalidations).
  void clear();

  std::size_t occupancy_bytes() const {
    return occupancy_.load(std::memory_order_relaxed);
  }
  std::size_t budget_bytes() const { return config_.budget_bytes; }
  const CacheConfig& config() const { return config_; }
  Stats stats() const;

 private:
  /// One resident value: exactly one of blob/array is set. The CRC-32 of the
  /// payload bytes is computed at admission (after the loader's result was
  /// already frame-verified at the tier boundary) so hits can be re-checked.
  struct Entry {
    BlobPtr blob;
    ArrayPtr array;
    std::size_t charge = 0;
    std::uint32_t crc = 0;
    std::list<std::string>::iterator lru_pos;
  };

  /// One in-flight single-flight load. `done`/`error`/value are published
  /// under `mu`; `cancelled` is written under the owning shard's lock and
  /// read by the leader at admission time (also under the shard lock).
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool cancelled = false;  // guarded by the shard mutex, not `mu`
    BlobPtr blob;
    ArrayPtr array;
    std::exception_ptr error;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  // front = most recent
    std::size_t bytes = 0;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
  };

  Shard& shard_for(const std::string& key);
  const Shard& shard_for(const std::string& key) const;

  /// Drops one resident entry (shard lock held by caller).
  void drop_entry_locked(Shard& shard,
                         std::unordered_map<std::string, Entry>::iterator it);
  /// Admits an entry and evicts LRU victims until the shard fits its budget
  /// slice (shard lock held by caller). Returns false when the entry alone
  /// exceeds the slice and was rejected.
  bool admit_locked(Shard& shard, const std::string& key, Entry entry);

  /// Shared engine for the blob/array flavors: `fromEntry` projects the
  /// typed pointer out of a resident entry, `toEntry` builds an entry from
  /// a freshly loaded value.
  template <typename Value, typename Result>
  Result get_or_load(const std::string& key,
                     const std::function<Value()>& loader);

  void note_hit(const Entry& entry, const std::string& key) const;

  CacheConfig config_;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> occupancy_{0};

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace canopus::cache
