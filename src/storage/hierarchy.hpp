#pragma once
// Multi-tier storage hierarchy with Canopus' placement policy.
//
// Tiers are ordered fastest-first (the pyramid of Fig. 1). Placement walks
// the stack top-down and puts each object on the fastest tier that still has
// room — a tier without sufficient capacity is bypassed and the next one
// selected, exactly as Section III-D describes. The hierarchy remembers
// which tier holds each object so retrieval is a single lookup.

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "storage/fault.hpp"
#include "storage/tier.hpp"

namespace canopus::storage {

/// Thrown when no tier can absorb an object. A typed subclass so the Pipeline facade can report StatusCode::kCapacity without
/// parsing messages.
class CapacityError : public Error {
 public:
  explicit CapacityError(const std::string& what) : Error(what) {}
};

/// Outcome of one operation of a batched read (read_batch /
/// RemoteStore::remote_read_batch): the payload and I/O accounting on
/// success, or the captured failure — a batch never throws as a whole, each
/// op fails independently exactly as its serial read() would.
struct BatchReadResult {
  util::Bytes bytes;
  IoResult io;
  std::exception_ptr error;  // null on success; bytes empty when set
};

/// Resolver for objects that are not on any local tier — the hook the
/// cluster fabric (src/fabric) plugs in so N node-local hierarchies behave
/// like one aggregate store. StorageHierarchy::read() consults it on a local
/// miss, *outside* the hierarchy lock: the remote owner takes its own lock,
/// and two nodes reading from each other must never hold both at once.
class RemoteStore {
 public:
  virtual ~RemoteStore() = default;

  /// Resolves `key` from whichever peer holds it and returns the I/O result
  /// including the network envelope. Called only after a local miss; throws
  /// TierIoError when no reachable peer has a copy.
  virtual IoResult remote_read(const std::string& key, util::Bytes& out) = 0;

  /// Batched variant used by read_batch() for a run of local misses: resolves
  /// every key, capturing each op's failure in its slot instead of throwing.
  /// The default loops remote_read(); the fabric overrides it to amortize the
  /// per-message network latency across the batch (one aggregated request).
  virtual std::vector<BatchReadResult> remote_read_batch(
      const std::vector<std::string>& keys) {
    std::vector<BatchReadResult> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      try {
        out[i].io = remote_read(keys[i], out[i].bytes);
      } catch (...) {
        out[i].error = std::current_exception();
      }
    }
    return out;
  }

  /// Planning estimate of remote_read()'s simulated cost for a `bytes`-sized
  /// object (owner tier cost + network envelope). No side effects: the serve
  /// cost model calls this per block while planning.
  virtual double estimated_read_cost(const std::string& key,
                                     std::size_t bytes) const = 0;

  /// Notification that a read of `key` was served from local storage (one
  /// per successful serve, after the bytes are in hand). Default no-op.
  virtual void note_local_hit(const std::string& key) { (void)key; }

  /// Monotone epoch of the cluster topology behind this resolver (bumped by
  /// node attach and detach). Planners (serve::CostModel) snapshot it and
  /// rebuild their residency probes when it moves, so a plan never routes
  /// against a retired owner. Standalone resolvers stay at 0.
  virtual std::uint64_t topology_epoch() const { return 0; }
};

enum class PlacementPolicy : std::uint8_t {
  kFastestFit,   // paper default: fastest tier with room, bypass when full
  kSlowestOnly,  // everything on the last tier (the "no hierarchy" baseline)
  kRoundRobin,   // stripe objects across tiers (ablation)
};

/// Retry-with-backoff knobs for reads against failure-prone tiers. Backoff is
/// charged to the simulated clock (sim_seconds), keeping runs deterministic.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;     // per copy (primary, then replica)
  double backoff_seconds = 1e-3;      // sim-clock delay before the 1st retry
  double backoff_multiplier = 2.0;    // exponential growth per retry
};

class StorageHierarchy {
 public:
  /// Builds a hierarchy from fastest to slowest.
  explicit StorageHierarchy(std::vector<TierSpec> specs,
                            PlacementPolicy policy = PlacementPolicy::kFastestFit);

  // Movable so factories can return by value; the mutex is not part of the
  // logical state (each instance gets a fresh one). Moving a hierarchy that
  // other threads are operating on is a caller bug, exactly as destroying
  // one would be.
  StorageHierarchy(StorageHierarchy&& o) noexcept
      : tiers_(std::move(o.tiers_)),
        policy_(o.policy_),
        faults_(std::move(o.faults_)),
        retry_(o.retry_),
        cache_(std::move(o.cache_)),
        remote_(o.remote_),
        access_listener_(std::move(o.access_listener_)),
        move_listener_(std::move(o.move_listener_)),
        round_robin_next_(o.round_robin_next_) {}
  StorageHierarchy& operator=(StorageHierarchy&&) = delete;
  StorageHierarchy(const StorageHierarchy&) = delete;
  StorageHierarchy& operator=(const StorageHierarchy&) = delete;

  std::size_t tier_count() const { return tiers_.size(); }
  StorageTier& tier(std::size_t i) { return *tiers_[i]; }
  const StorageTier& tier(std::size_t i) const { return *tiers_[i]; }

  /// Locked (used, capacity) snapshot of tier `i` — safe to call from a
  /// background maintenance thread while readers and writers are active.
  std::pair<std::size_t, std::size_t> tier_usage(std::size_t i) const;

  /// Index of the tier the policy would choose for an object of this size,
  /// or nullopt when nothing fits.
  std::optional<std::size_t> choose_tier(std::size_t nbytes) const;

  /// Places and writes an object; returns (tier index, io result). When
  /// `preferred` names a tier with room, the object goes there; otherwise
  /// the policy places it, bypassing full tiers. The fit check and the write
  /// run under one lock, so a concurrent writer cannot take the room in
  /// between. Throws CapacityError when no tier can hold it.
  std::pair<std::size_t, IoResult> place(
      const std::string& key, util::BytesView data,
      std::optional<std::size_t> preferred = std::nullopt);

  /// place() plus a best-effort replica on the next tier down (see
  /// replicate_below). The replica's write cost is folded into the returned
  /// IoResult so planning sees the true total I/O.
  std::pair<std::size_t, IoResult> place_with_replica(const std::string& key,
                                                      util::BytesView data);

  /// Best-effort durability: writes a second copy of `data` under the
  /// replica key on the first tier below `primary` with room. Injected write
  /// faults are swallowed (a replica is opportunistic, never load-bearing for
  /// the write path). Returns the replica tier, or nullopt when no lower tier
  /// fits or the write faulted; adds the replica's cost to *io when given.
  std::optional<std::size_t> replicate_below(std::size_t primary,
                                             const std::string& key,
                                             util::BytesView data,
                                             IoResult* io = nullptr);

  /// Tier holding the replica copy of `key`, or nullopt.
  std::optional<std::size_t> replica_tier(const std::string& key) const;

  /// Internal object name of the replica copy of `key`.
  static std::string replica_key(const std::string& key);

  /// Writes to an explicit tier (used when a placement plan is precomputed).
  IoResult write_to(std::size_t tier_index, const std::string& key,
                    util::BytesView data);

  /// Reads an object from whichever tier holds it, retrying per the
  /// RetryPolicy when a tier read fails or fails verification, then falling
  /// back to the replica copy (if one exists) once primary attempts are
  /// exhausted. The returned IoResult carries the retry/corruption counters
  /// and whether the replica served the read; its sim_seconds include the
  /// cost of failed attempts and backoff. Throws TierIoError/IntegrityError
  /// only when every copy is exhausted; always verifies that the bytes
  /// returned match the recorded object size.
  IoResult read(const std::string& key, util::Bytes& out) const;

  /// Batched submission seam for the async I/O engine (src/io): reads every
  /// key as one aggregated submission, returning per-op results in key order.
  /// Semantics per op are identical to read() — same retry/backoff loop,
  /// replica fallback, cache single-flight, remote resolution, and (because
  /// ops execute in key order under one lock acquisition) the same seeded
  /// fault-injector decision stream as the serial loop. Two things differ:
  /// failures are captured per op instead of thrown, and on the direct tier
  /// path consecutive clean reads from one tier within the batch share the
  /// submission round trip — ops after the tier's first pay transfer cost
  /// only, modeling one I/O-aggregator request per storage target.
  /// Retried, replica-served, and cache-fronted ops keep full per-op costs.
  /// Local misses are deferred and resolved through
  /// RemoteStore::remote_read_batch after the lock is released (same
  /// lock-ordering rule as read()).
  std::vector<BatchReadResult> read_batch(
      const std::vector<std::string>& keys) const;

  /// Tier currently holding the object, or nullopt.
  std::optional<std::size_t> find(const std::string& key) const;

  void erase(const std::string& key);

  // --- Migration (Section IV-B: "data migration and eviction will play an
  // integral part"). Which objects move is the tier advisor's decision
  // (src/tiering); without one, nothing demotes. ---------------------------

  /// Moves an object to another tier; returns the read+write cost. No-op
  /// (zero cost) when the object already lives there. Throws when the
  /// object is missing or the target lacks capacity.
  IoResult migrate(const std::string& key, std::size_t to_tier);

  // --- Robustness (fault injection, retries, replicas). -------------------

  /// Routes every tier's I/O through `faults` (shared so a returned-by-value
  /// hierarchy keeps it alive). Pass nullptr to detach.
  void attach_fault_injector(std::shared_ptr<FaultInjector> faults);
  FaultInjector* fault_injector() const { return faults_.get(); }

  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // --- Shared block cache (elastic read scaling). --------------------------

  /// Fronts read() with a shared BlockCache: hits are served from memory at
  /// zero simulated cost (IoResult::from_cache), misses are single-flight so
  /// N concurrent readers of the same object trigger one tier fetch. The
  /// cache is shared so many hierarchies/readers can pool one byte budget.
  /// Pass nullptr to detach. Cached bytes were frame-verified by the tier on
  /// the way in; erase() invalidates the object's cache entries (including
  /// its replica and decoded aliases), so stale data is never served.
  void attach_block_cache(std::shared_ptr<cache::BlockCache> cache);
  cache::BlockCache* block_cache() const { return cache_.get(); }

  /// Cache key under which readers store the *decoded* (decompressed) form
  /// of the object named `key`. Kept here so erase() can invalidate decoded
  /// entries without knowing who decoded them.
  static std::string decoded_alias(const std::string& key);

  // --- Cluster fabric (remote resolution of local misses). -----------------

  /// Attaches a resolver consulted by read() when no local tier holds the
  /// key (src/fabric plugs each node's peer-lookup in here). Not owned; must
  /// outlive the hierarchy. Pass nullptr to detach. With a remote store
  /// attached, a read of an unknown key raises whatever the resolver raises
  /// instead of the "not in hierarchy" error.
  void attach_remote_store(RemoteStore* remote);
  RemoteStore* remote_store() const { return remote_; }

  // --- Placement observation hooks (src/tiering plugs in here). ------------

  /// Fires once per read this hierarchy serves locally — cache hits, tier
  /// reads, replica fallbacks — with the object key and payload size. This is
  /// the heat signal for workload-adaptive tiering.
  using AccessListener = std::function<void(const std::string& key,
                                            std::size_t bytes)>;
  /// Fires after any migrate(), including the tier advisor's promotions and
  /// coldest-first demotions, so residency observers (predicted-placement
  /// maps, cost planners) can re-stamp instead of going stale.
  using MoveListener = std::function<void(const std::string& key,
                                          std::size_t from_tier,
                                          std::size_t to_tier)>;

  /// Installs the listener (last attach wins; empty function detaches).
  /// Attach before concurrent use, like attach_remote_store: the read path
  /// invokes the listener without re-taking the attachment lock. Listeners
  /// run with the hierarchy mutex held on most paths and must only take leaf
  /// locks (see tiering::HeatTracker) — calling back into the hierarchy from
  /// a listener deadlocks on the non-recursive paths.
  void attach_access_listener(AccessListener listener);
  void attach_move_listener(MoveListener listener);

  /// Locked snapshot of the keys on tier `i`, sorted (replica copies
  /// included). Safe from background maintenance threads; the tier advisor
  /// ranks room-making victims from it.
  std::vector<std::string> keys_on_tier(std::size_t i) const;

 private:
  /// The pre-cache read path: placement lookup, retry loop, replica
  /// fallback. read() delegates here on a cache miss (or when no cache is
  /// attached).
  IoResult read_uncached(const std::string& key, util::Bytes& out) const;

  /// After remote resolution of a local miss failed with `remote_error`:
  /// a migration can move `key` onto this node between the miss and the
  /// resolver's lookup, which then names this node as the owner and finds
  /// no other copy. Reads the key locally if it is here now, else rethrows.
  IoResult read_moved_here(const std::string& key, util::Bytes& out,
                           std::exception_ptr remote_error) const;

  /// The locked local part of read_uncached: retry loop + replica fallback
  /// for a key some tier holds. Caller verified `where` under the same lock.
  IoResult read_local(std::size_t where, const std::string& key,
                      util::Bytes& out) const;

  /// One bounded attempt loop against the copy of `key` on `tier`; folds
  /// failed-attempt costs and counters into `acc`. Returns success; stores the
  /// last failure in `error`.
  bool read_attempts(std::size_t tier, const std::string& key, util::Bytes& out,
                     IoResult& acc, std::exception_ptr& error) const;

  /// Serializes every data-path operation: the progressive reader's
  /// read-ahead and the refactorer's pipelined committer issue hierarchy I/O
  /// from pool workers concurrently with the caller's thread. One lock keeps
  /// tier state and the fault injector's RNG stream consistent; it is
  /// recursive because compound operations (place_with_replica, migrate)
  /// reuse the locked primitives. Simulated
  /// I/O is cheap, so the coarse lock models the one-I/O-aggregator-per-
  /// storage-target regime rather than costing real throughput.
  mutable std::recursive_mutex mu_;
  std::vector<std::unique_ptr<StorageTier>> tiers_;
  PlacementPolicy policy_;
  std::shared_ptr<FaultInjector> faults_;
  RetryPolicy retry_;
  std::shared_ptr<cache::BlockCache> cache_;
  RemoteStore* remote_ = nullptr;  // not owned; see attach_remote_store
  AccessListener access_listener_;  // see attach_access_listener
  MoveListener move_listener_;      // see attach_move_listener
  mutable std::size_t round_robin_next_ = 0;
};

}  // namespace canopus::storage
