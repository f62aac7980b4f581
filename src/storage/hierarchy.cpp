#include "storage/hierarchy.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "storage/blob_frame.hpp"
#include "util/assert.hpp"

namespace canopus::storage {

StorageHierarchy::StorageHierarchy(std::vector<TierSpec> specs) {
  CANOPUS_CHECK(!specs.empty(), "hierarchy needs at least one tier");
  tiers_.reserve(specs.size());
  for (auto& s : specs) {
    tiers_.push_back(std::make_unique<StorageTier>(std::move(s)));
  }
}

std::optional<std::size_t> StorageHierarchy::choose_tier(std::size_t nbytes) const {
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i]->fits(nbytes)) return i;
  }
  return std::nullopt;
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

IoResult StorageHierarchy::read(const std::string& key, util::Bytes& out,
                                Admission admission) const {
  if (!cache_) return read_uncached(key, out);
  if (admission == Admission::kSkip) {
    if (const auto blob = cache_->lookup_blob(key)) {
      out.assign(blob->begin(), blob->end());
      return served_from_cache(key, out.size());
    }
    return read_uncached(key, out);
  }
  // Cache-fronted path. Deliberately does NOT hold mu_ here: waiters block
  // on the single-flight condition variable while the leader's loader takes
  // mu_ inside read_uncached, so holding mu_ across the cache call would
  // deadlock (and serialize all cached reads besides).
  IoResult leader_io;
  bool leader = false;
  cache::BlockCache::BlobResult result;
  try {
    result = cache_->get_or_load_blob(key, [&] {
      leader = true;
      util::Bytes bytes;
      leader_io = read_uncached(key, bytes);
      return bytes;
    });
  } catch (const IntegrityError& e) {
    // A piggybacked waiter rethrows the leader's error object, whose charge
    // is the leader's reads: the waiter read nothing, so it gets a copy that
    // charges nothing.
    if (leader) throw;
    throw IntegrityError(e.what());
  } catch (const TierIoError& e) {
    if (leader) throw;
    throw TierIoError(e.what());
  }
  out.assign(result.blob->begin(), result.blob->end());
  // The single-flight leader pays the true tier cost; hits and piggybacked
  // waiters are served from memory at zero simulated cost.
  if (result.source == cache::BlockCache::Source::kLoaded) return leader_io;
  return served_from_cache(key, out.size());
}

IoResult StorageHierarchy::served_from_cache(const std::string& key,
                                             std::size_t bytes) const {
  // A cache hit is a local serve: the bytes never left this node, whichever
  // node originally faulted them in.
  if (remote_ != nullptr) remote_->note_local_hit(key);
  if (access_listener_) access_listener_(key, bytes);
  IoResult io;
  io.bytes = bytes;
  io.from_cache = true;
  return io;
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
  try {
    std::rethrow_exception(error);
  } catch (StorageError& e) {
    e.charge = acc;
    throw;
  }
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
  // Cached copies of the blob stay valid: the bytes are tier-independent.
  tiers_[*from]->erase(key);
  return IoResult{read_io.sim_seconds + write_io.sim_seconds,
                  read_io.wall_seconds + write_io.wall_seconds, data.size()};
}

}  // namespace canopus::storage
