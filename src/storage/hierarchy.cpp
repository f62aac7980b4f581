#include "storage/hierarchy.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "storage/blob_frame.hpp"
#include "util/assert.hpp"

namespace canopus::storage {

StorageHierarchy::StorageHierarchy(std::vector<TierSpec> specs,
                                   PlacementPolicy policy)
    : policy_(policy) {
  CANOPUS_CHECK(!specs.empty(), "hierarchy needs at least one tier");
  tiers_.reserve(specs.size());
  for (auto& s : specs) {
    tiers_.push_back(std::make_unique<StorageTier>(std::move(s)));
  }
}

std::optional<std::size_t> StorageHierarchy::choose_tier(std::size_t nbytes) const {
  std::scoped_lock lock(mu_);
  switch (policy_) {
    case PlacementPolicy::kFastestFit:
      for (std::size_t i = 0; i < tiers_.size(); ++i) {
        if (tiers_[i]->fits(nbytes)) return i;
      }
      return std::nullopt;
    case PlacementPolicy::kSlowestOnly:
      return tiers_.back()->fits(nbytes)
                 ? std::optional<std::size_t>(tiers_.size() - 1)
                 : std::nullopt;
    case PlacementPolicy::kRoundRobin: {
      for (std::size_t probe = 0; probe < tiers_.size(); ++probe) {
        const std::size_t i = (round_robin_next_ + probe) % tiers_.size();
        if (tiers_[i]->fits(nbytes)) {
          round_robin_next_ = (i + 1) % tiers_.size();
          return i;
        }
      }
      return std::nullopt;
    }
  }
  CANOPUS_UNREACHABLE("unknown placement policy");
}

std::pair<std::size_t, IoResult> StorageHierarchy::place(
    const std::string& key, util::BytesView data,
    std::optional<std::size_t> preferred) {
  std::scoped_lock lock(mu_);
  erase(key);  // replacing an object must not leak capacity on another tier
  CANOPUS_ASSERT(!preferred.has_value() || *preferred < tiers_.size());
  const bool use_preferred =
      preferred.has_value() && tiers_[*preferred]->fits(data.size());
  const auto choice = use_preferred ? preferred : choose_tier(data.size());
  if (!choice.has_value()) {
    throw CapacityError("no tier can hold '" + key + "' (" +
                        std::to_string(data.size()) + " bytes)");
  }
  return {*choice, tiers_[*choice]->write(key, data)};
}

IoResult StorageHierarchy::write_to(std::size_t tier_index, const std::string& key,
                                    util::BytesView data) {
  std::scoped_lock lock(mu_);
  CANOPUS_ASSERT(tier_index < tiers_.size());
  erase(key);
  return tiers_[tier_index]->write(key, data);
}

std::pair<std::size_t, IoResult> StorageHierarchy::place_with_replica(
    const std::string& key, util::BytesView data) {
  std::scoped_lock lock(mu_);
  auto [primary, io] = place(key, data);
  replicate_below(primary, key, data, &io);
  return {primary, io};
}

std::optional<std::size_t> StorageHierarchy::replicate_below(
    std::size_t primary, const std::string& key, util::BytesView data,
    IoResult* io) {
  std::scoped_lock lock(mu_);
  CANOPUS_ASSERT(primary < tiers_.size());
  const auto rkey = replica_key(key);
  for (std::size_t t = primary + 1; t < tiers_.size(); ++t) {
    if (!tiers_[t]->fits(data.size())) continue;
    try {
      const auto rio = tiers_[t]->write(rkey, data);
      if (io) {
        io->sim_seconds += rio.sim_seconds;
        io->wall_seconds += rio.wall_seconds;
      }
      return t;
    } catch (const TierIoError&) {
      // Replica writes are opportunistic: an injected failure leaves the
      // object unreplicated rather than failing the caller's write.
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> StorageHierarchy::replica_tier(
    const std::string& key) const {
  return find(replica_key(key));
}

std::string StorageHierarchy::replica_key(const std::string& key) {
  return key + "#replica";
}

bool StorageHierarchy::read_attempts(std::size_t tier, const std::string& key,
                                     util::Bytes& out, IoResult& acc,
                                     std::exception_ptr& error) const {
  double backoff = retry_.backoff_seconds;
  const std::uint32_t attempts = std::max<std::uint32_t>(1, retry_.max_attempts);
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    try {
      const auto io = tiers_[tier]->read(key, out);
      acc.sim_seconds += io.sim_seconds;
      acc.wall_seconds += io.wall_seconds;
      acc.bytes = io.bytes;
      return true;
    } catch (const IntegrityError&) {
      ++acc.corruptions;
      error = std::current_exception();
    } catch (const TierIoError&) {
      error = std::current_exception();
    }
    ++acc.retries;
    // A failed attempt still pays the transfer, plus the backoff delay on the
    // simulated clock (wall time stays honest: nothing actually slept).
    acc.sim_seconds +=
        tiers_[tier]->read_cost(tiers_[tier]->object_size(key)) + backoff;
    backoff *= retry_.backoff_multiplier;
  }
  return false;
}

IoResult StorageHierarchy::read(const std::string& key, util::Bytes& out) const {
  if (!cache_) return read_uncached(key, out);
  // Cache-fronted path. Deliberately does NOT hold mu_ here: waiters block
  // on the single-flight condition variable while the leader's loader takes
  // mu_ inside read_uncached, so holding mu_ across the cache call would
  // deadlock (and serialize all cached reads besides).
  IoResult leader_io;
  const auto result = cache_->get_or_load_blob(key, [&] {
    util::Bytes bytes;
    leader_io = read_uncached(key, bytes);
    return bytes;
  });
  out.assign(result.blob->begin(), result.blob->end());
  // The single-flight leader pays the true tier cost; hits and piggybacked
  // waiters are served from memory at zero simulated cost.
  if (result.source == cache::BlockCache::Source::kLoaded) return leader_io;
  // A cache hit is a local serve: the bytes never left this node, whichever
  // node originally faulted them in.
  if (remote_ != nullptr) remote_->note_local_hit(key);
  if (access_listener_) access_listener_(key, out.size());
  IoResult io;
  io.bytes = out.size();
  io.from_cache = true;
  return io;
}

std::vector<BatchReadResult> StorageHierarchy::read_batch(
    const std::vector<std::string>& keys) const {
  std::vector<BatchReadResult> out(keys.size());
  if (cache_) {
    // Cache-fronted ops keep the per-key single-flight protocol (hits free,
    // one leader per miss); batching them under mu_ would deadlock against
    // the cache's condition variable exactly as documented in read().
    for (std::size_t i = 0; i < keys.size(); ++i) {
      try {
        out[i].io = read(keys[i], out[i].bytes);
      } catch (...) {
        out[i].error = std::current_exception();
      }
    }
    return out;
  }
  std::vector<std::size_t> misses;
  {
    std::scoped_lock lock(mu_);
    // Round-trip amortization: the first clean read from a tier in this batch
    // pays the full submission latency, later ones on the same tier ride the
    // same aggregated request (transfer cost only). Retries and replica
    // fallbacks break out of the aggregate and keep their full per-attempt
    // costs — a failed request is its own round trip.
    std::vector<bool> latency_paid(tiers_.size(), false);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto where = find(keys[i]);
      if (!where.has_value()) {
        if (remote_ != nullptr) {
          misses.push_back(i);
        } else {
          out[i].error = std::make_exception_ptr(
              Error("object '" + keys[i] + "' not in hierarchy"));
        }
        continue;
      }
      try {
        out[i].io = read_local(*where, keys[i], out[i].bytes);
        if (out[i].io.retries == 0 && !out[i].io.from_replica) {
          if (latency_paid[*where]) {
            out[i].io.sim_seconds -= tiers_[*where]->spec().read_latency;
          } else {
            latency_paid[*where] = true;
          }
        }
      } catch (...) {
        out[i].error = std::current_exception();
      }
    }
  }
  if (!misses.empty()) {
    // Remote resolution outside mu_, same deadlock rule as read_uncached().
    std::vector<std::string> remote_keys;
    remote_keys.reserve(misses.size());
    for (const std::size_t i : misses) remote_keys.push_back(keys[i]);
    auto remote_results = remote_->remote_read_batch(remote_keys);
    CANOPUS_ASSERT(remote_results.size() == misses.size());
    for (std::size_t j = 0; j < misses.size(); ++j) {
      BatchReadResult& r = out[misses[j]];
      r = std::move(remote_results[j]);
      if (r.error == nullptr) continue;
      try {
        r.io = read_moved_here(keys[misses[j]], r.bytes, r.error);
        r.error = nullptr;
      } catch (...) {
        r.error = std::current_exception();
      }
    }
  }
  return out;
}

IoResult StorageHierarchy::read_uncached(const std::string& key,
                                         util::Bytes& out) const {
  {
    std::scoped_lock lock(mu_);
    const auto where = find(key);
    if (where.has_value()) return read_local(*where, key, out);
    CANOPUS_CHECK(remote_ != nullptr, "object '" + key + "' not in hierarchy");
  }
  // Local miss with a remote store attached: resolve across the fabric.
  // Deliberately outside mu_ — the remote owner takes its own hierarchy
  // lock, and two nodes reading from each other must never hold both.
  try {
    return remote_->remote_read(key, out);
  } catch (const Error&) {
    return read_moved_here(key, out, std::current_exception());
  }
}

IoResult StorageHierarchy::read_moved_here(
    const std::string& key, util::Bytes& out,
    std::exception_ptr remote_error) const {
  std::scoped_lock lock(mu_);
  const auto where = find(key);
  if (!where.has_value()) std::rethrow_exception(remote_error);
  return read_local(*where, key, out);
}

IoResult StorageHierarchy::read_local(std::size_t where, const std::string& key,
                                      util::Bytes& out) const {
  std::scoped_lock lock(mu_);
  IoResult acc;
  std::exception_ptr error;
  if (read_attempts(where, key, out, acc, error)) {
    if (obs::enabled() && acc.retries > 0) {
      obs::MetricsRegistry::global().counter("hierarchy.retries").add(acc.retries);
    }
    CANOPUS_CHECK(out.size() == tiers_[where]->object_size(key),
                  "short read of '" + key + "': got " +
                      std::to_string(out.size()) + " of " +
                      std::to_string(tiers_[where]->object_size(key)) +
                      " bytes");
    if (remote_ != nullptr) remote_->note_local_hit(key);
    if (access_listener_) access_listener_(key, out.size());
    return acc;
  }
  // Primary copy exhausted its attempts: fall back to the replica, if any.
  const auto rkey = replica_key(key);
  const auto rtier = find(rkey);
  if (rtier.has_value() && read_attempts(*rtier, rkey, out, acc, error)) {
    acc.from_replica = true;
    if (obs::enabled()) {
      auto& registry = obs::MetricsRegistry::global();
      registry.counter("hierarchy.replica_fallbacks").add(1);
      if (acc.retries > 0) registry.counter("hierarchy.retries").add(acc.retries);
    }
    CANOPUS_CHECK(out.size() == tiers_[*rtier]->object_size(rkey),
                  "short read of replica '" + rkey + "'");
    if (remote_ != nullptr) remote_->note_local_hit(key);
    if (access_listener_) access_listener_(key, out.size());
    return acc;
  }
  CANOPUS_ASSERT(error != nullptr);
  std::rethrow_exception(error);
}

std::optional<std::size_t> StorageHierarchy::find(const std::string& key) const {
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i]->contains(key)) return i;
  }
  return std::nullopt;
}

void StorageHierarchy::erase(const std::string& key) {
  std::scoped_lock lock(mu_);
  const auto rkey = replica_key(key);
  for (auto& t : tiers_) {
    t->erase(key);
    t->erase(rkey);
  }
  if (cache_) {
    // Lock order is hierarchy mutex -> cache shard mutex (never reversed:
    // cache loaders run outside every cache lock). Invalidation also cancels
    // any in-flight load of these keys, so a reader racing the erase cannot
    // re-admit the stale bytes.
    cache_->invalidate(key);
    cache_->invalidate(rkey);
    cache_->invalidate(decoded_alias(key));
    cache_->invalidate(decoded_alias(rkey));
  }
}

void StorageHierarchy::attach_block_cache(
    std::shared_ptr<cache::BlockCache> cache) {
  std::scoped_lock lock(mu_);
  cache_ = std::move(cache);
}

void StorageHierarchy::attach_remote_store(RemoteStore* remote) {
  std::scoped_lock lock(mu_);
  remote_ = remote;
}

void StorageHierarchy::attach_access_listener(AccessListener listener) {
  std::scoped_lock lock(mu_);
  access_listener_ = std::move(listener);
}

void StorageHierarchy::attach_move_listener(MoveListener listener) {
  std::scoped_lock lock(mu_);
  move_listener_ = std::move(listener);
}

std::vector<std::string> StorageHierarchy::keys_on_tier(std::size_t i) const {
  std::scoped_lock lock(mu_);
  CANOPUS_ASSERT(i < tiers_.size());
  return tiers_[i]->keys();
}

std::pair<std::size_t, std::size_t> StorageHierarchy::tier_usage(
    std::size_t i) const {
  std::scoped_lock lock(mu_);
  CANOPUS_ASSERT(i < tiers_.size());
  return {tiers_[i]->used_bytes(), tiers_[i]->spec().capacity_bytes};
}

std::string StorageHierarchy::decoded_alias(const std::string& key) {
  return key + "#decoded";
}

void StorageHierarchy::attach_fault_injector(
    std::shared_ptr<FaultInjector> faults) {
  std::scoped_lock lock(mu_);
  faults_ = std::move(faults);
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    tiers_[i]->set_fault_injector(faults_.get(), i);
  }
}

IoResult StorageHierarchy::migrate(const std::string& key, std::size_t to_tier) {
  std::scoped_lock lock(mu_);
  CANOPUS_ASSERT(to_tier < tiers_.size());
  const auto from = find(key);
  CANOPUS_CHECK(from.has_value(), "migrate: object '" + key + "' not found");
  if (*from == to_tier) return IoResult{};
  util::Bytes data;
  const auto read_io = tiers_[*from]->read(key, data);
  const auto write_io = tiers_[to_tier]->write(key, data);
  tiers_[*from]->erase(key);
  // Cached copies of the blob stay valid — the bytes are tier-independent —
  // but residency observers must re-stamp, or planned costs go stale against
  // the new placement (the move listener is that re-stamp hook).
  if (move_listener_) move_listener_(key, *from, to_tier);
  return IoResult{read_io.sim_seconds + write_io.sim_seconds,
                  read_io.wall_seconds + write_io.wall_seconds, data.size()};
}

}  // namespace canopus::storage
