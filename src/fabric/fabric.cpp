#include "fabric/fabric.hpp"

#include <algorithm>

#include "adios/bp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/tier.hpp"
#include "util/assert.hpp"

namespace canopus::fabric {

namespace {

void count_fabric(const char* what, std::uint64_t n = 1) {
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .counter(std::string("fabric.") + what)
        .add(n);
  }
}

bool sharded_kind(adios::BlockKind kind) {
  return kind == adios::BlockKind::kBase || kind == adios::BlockKind::kDelta ||
         kind == adios::BlockKind::kData;
}

}  // namespace

Fabric::Fabric(FabricOptions options, std::vector<storage::TierSpec> node_tiers,
               storage::PlacementPolicy policy)
    : options_(options),
      node_tiers_(std::move(node_tiers)),
      policy_(policy),
      directory_(options.nodes, options.partition) {
  CANOPUS_CHECK(options_.nodes >= 1, "fabric needs at least one node");
  CANOPUS_CHECK(options_.remote_latency_seconds >= 0.0 &&
                    options_.remote_bandwidth > 0.0,
                "fabric: remote envelope must be non-negative latency and "
                "positive bandwidth");
  for (std::size_t i = 0; i < options_.nodes; ++i) append_node();
}

Fabric::Node* Fabric::node_ptr(std::size_t i) const {
  std::shared_lock lock(nodes_mu_);
  return i < nodes_.size() ? nodes_[i].get() : nullptr;
}

std::uint32_t Fabric::append_node() {
  auto node = std::make_unique<Node>(node_tiers_, policy_);
  std::uint32_t id = 0;
  {
    std::unique_lock lock(nodes_mu_);
    id = static_cast<std::uint32_t>(nodes_.size());
    node->remote = std::make_unique<NodeRemoteStore>(*this, id);
    node->hierarchy.attach_remote_store(node->remote.get());
    if (per_node_cache_.has_value()) {
      node->hierarchy.attach_block_cache(
          std::make_shared<cache::BlockCache>(*per_node_cache_));
    }
    // A node attached mid-run inherits the tiering listeners, so heat keeps
    // flowing from the moment the migration hands it chunks.
    {
      std::scoped_lock hooks(hooks_mu_);
      if (node_access_listener_) {
        node->hierarchy.attach_access_listener(node_access_listener_);
      }
      if (node_move_listener_) {
        node->hierarchy.attach_move_listener(node_move_listener_);
      }
    }
    nodes_.push_back(std::move(node));
  }
  return id;
}

std::size_t Fabric::node_count() const {
  std::shared_lock lock(nodes_mu_);
  return nodes_.size();
}

storage::StorageHierarchy& Fabric::node(std::size_t i) {
  Node* n = node_ptr(i);
  CANOPUS_CHECK(n != nullptr, "fabric: node index out of range");
  return n->hierarchy;
}

void Fabric::attach_node_caches(const cache::CacheConfig& per_node) {
  {
    std::unique_lock lock(nodes_mu_);
    per_node_cache_ = per_node;
  }
  for (std::size_t i = 0; i < node_count(); ++i) {
    node_ptr(i)->hierarchy.attach_block_cache(
        std::make_shared<cache::BlockCache>(per_node));
  }
}

cache::BlockCache* Fabric::node_cache(std::size_t i) {
  Node* n = node_ptr(i);
  CANOPUS_CHECK(n != nullptr, "fabric: node index out of range");
  return n->hierarchy.block_cache();
}

ImportReport Fabric::import_container(storage::StorageHierarchy& staging,
                                      const std::string& path) {
  const adios::BpReader reader(staging, path);
  std::vector<adios::BlockRecord> records;
  for (const auto& var : reader.variables()) {
    const auto info = reader.inq_var(var);
    records.insert(records.end(), info.blocks.begin(), info.blocks.end());
  }
  // Placement order decides who wins the fast tiers when a node cannot hold
  // its whole shard: primaries (bases first) beat replica copies beat
  // geometry, which is only read when no GeometryCache is provided.
  std::stable_sort(records.begin(), records.end(),
                   [](const adios::BlockRecord& a, const adios::BlockRecord& b) {
                     auto rank = [](const adios::BlockRecord& r) {
                       if (r.kind == adios::BlockKind::kBase) return 0;
                       return sharded_kind(r.kind) ? 1 : 2;
                     };
                     return rank(a) < rank(b);
                   });

  ImportReport report;
  report.blocks = records.size();
  const std::size_t slots = node_count();
  auto each_attached = [&](auto&& fn) {
    for (std::size_t i = 0; i < slots; ++i) {
      Node* n = node_ptr(i);
      if (n != nullptr && !n->detached.load(std::memory_order_relaxed)) fn(*n);
    }
  };

  // The metadata object is tiny and opens every BpReader: every node keeps it.
  const auto meta_key = adios::metadata_key(path);
  util::Bytes meta;
  staging.read(meta_key, meta);
  each_attached([&](Node& n) {
    n.hierarchy.place(meta_key, meta);
    ++report.replicated;
  });
  {
    std::scoped_lock lock(replicated_mu_);
    replicated_keys_.push_back(meta_key);
  }

  util::Bytes bytes;
  for (const auto& r : records) {
    staging.read(r.object_key, bytes);
    if (sharded_kind(r.kind)) {
      const auto owner =
          directory_.assign(r.object_key, r.chunk, r.chunk_count, bytes.size());
      node_ptr(owner)->hierarchy.place(r.object_key, bytes);
      ++report.sharded;
      report.sharded_bytes += bytes.size();
    } else {
      each_attached([&](Node& n) {
        n.hierarchy.place(r.object_key, bytes);
        ++report.replicated;
      });
      std::scoped_lock lock(replicated_mu_);
      replicated_keys_.push_back(r.object_key);
    }
  }

  // Replica pass after every primary is placed (best-effort, like
  // replicate_below: a replica that does not fit is skipped, never fatal).
  if (directory_.active_nodes().size() > 1) {
    for (const auto& r : records) {
      if (!sharded_kind(r.kind)) continue;
      const auto loc = directory_.lookup(r.object_key);
      CANOPUS_ASSERT(loc.has_value() && loc->replica.has_value());
      staging.read(r.object_key, bytes);
      try {
        node_ptr(*loc->replica)
            ->hierarchy.place(
                storage::StorageHierarchy::replica_key(r.object_key), bytes);
        ++report.replicas;
      } catch (const storage::CapacityError&) {
      }
    }
  }
  update_occupancy_gauges();
  return report;
}

// --- Elastic topology. ------------------------------------------------------

MigrationReport Fabric::attach_node(std::uint32_t* id_out) {
  std::scoped_lock tlock(topology_mu_);
  const std::uint32_t id = append_node();
  // Seed the read-mostly replicated blocks (metadata, geometry) from any
  // serving peer so the node can open readers before the shard migration
  // lands. Sharded blocks it does not yet own resolve remotely.
  std::vector<std::string> seeds;
  {
    std::scoped_lock lock(replicated_mu_);
    seeds = replicated_keys_;
  }
  if (!seeds.empty()) {
    util::Bytes bytes;
    for (const auto& key : seeds) {
      for (std::size_t i = 0; i < node_count(); ++i) {
        if (i == id) continue;
        Node* peer = node_ptr(i);
        if (peer == nullptr ||
            peer->detached.load(std::memory_order_relaxed) ||
            !peer->alive.load(std::memory_order_relaxed)) {
          continue;
        }
        try {
          peer->hierarchy.read(key, bytes);
          node_ptr(id)->hierarchy.place(key, bytes);
          break;
        } catch (const Error&) {
        }
      }
    }
  }
  MigrationReport report = run_migration(directory_.attach_node(id));
  count_fabric("node_attaches");
  report.replicas_repaired += repair_replicas(std::nullopt);
  update_occupancy_gauges();
  if (id_out != nullptr) *id_out = id;
  return report;
}

MigrationReport Fabric::detach_node(std::uint32_t id) {
  std::scoped_lock tlock(topology_mu_);
  Node* n = node_ptr(id);
  CANOPUS_CHECK(n != nullptr && !n->detached.load(std::memory_order_relaxed),
                "fabric: cannot detach node " + std::to_string(id));
  MigrationReport report = run_migration(directory_.detach_node(id));
  // Anything that could not move on the first pass (a transient fault on
  // the source, no room on the new owner) gets bounded retries; the node
  // must own nothing before it may stop serving.
  auto owned_by = [&](std::uint32_t node_id) {
    const auto owned = directory_.owned_bytes();
    return node_id < owned.size() ? owned[node_id] : 0;
  };
  for (int round = 0; round < 3 && owned_by(id) > 0; ++round) {
    const MigrationReport retry = run_migration(directory_.plan_rebalance());
    report.chunks_moved += retry.chunks_moved;
    report.bytes_moved += retry.bytes_moved;
    report.failed = retry.failed;
  }
  CANOPUS_CHECK(owned_by(id) == 0,
                "fabric: detach of node " + std::to_string(id) +
                    " left primaries behind (remaining nodes out of room?)");
  report.replicas_repaired += repair_replicas(id);
  n->detached.store(true, std::memory_order_relaxed);
  count_fabric("node_detaches");
  update_occupancy_gauges();
  return report;
}

bool Fabric::attached(std::size_t i) const {
  Node* n = node_ptr(i);
  return n != nullptr && !n->detached.load(std::memory_order_relaxed);
}

MigrationReport Fabric::run_migration(const RebalancePlan& plan) {
  MigrationReport report;
  util::Bytes bytes;
  for (const auto& mv : plan.moves) {
    CANOPUS_SPAN("fabric.migrate", {{"from", static_cast<int>(mv.from)},
                                    {"to", static_cast<int>(mv.to)}});
    Node* dst = node_ptr(mv.to);
    CANOPUS_ASSERT(dst != nullptr);
    Node* src = node_ptr(mv.from);
    // Copy: the primary first; a faulting, corrupted, or killed source
    // degrades to the replica copy (PR 1's fallback is the safety net for
    // the copy window).
    bool copied = false;
    if (src != nullptr) {
      try {
        src->hierarchy.read(mv.key, bytes);
        copied = true;
      } catch (const Error&) {
      }
    }
    if (!copied) {
      const auto loc = directory_.lookup(mv.key);
      if (loc.has_value() && loc->replica.has_value()) {
        Node* rep = node_ptr(*loc->replica);
        if (rep != nullptr) {
          try {
            rep->hierarchy.read(
                storage::StorageHierarchy::replica_key(mv.key), bytes);
            copied = true;
          } catch (const Error&) {
          }
        }
      }
    }
    if (!copied) {
      ++report.failed;
      migration_failures_.fetch_add(1, std::memory_order_relaxed);
      count_fabric("migration_failures");
      continue;  // chunk stays with (and is served by) its current owner
    }
    try {
      dst->hierarchy.place(mv.key, bytes);
    } catch (const storage::CapacityError&) {
      ++report.failed;
      migration_failures_.fetch_add(1, std::memory_order_relaxed);
      count_fabric("migration_failures");
      continue;
    }
    // Cutover: reads resolve to the new owner from here on. Then retire the
    // old copy — erase() also invalidates the losing node's cache entries
    // (blob, replica, and decoded aliases), so a post-cutover read can never
    // be served from the stale owner's cache.
    directory_.commit_move(mv.key, mv.to);
    if (src != nullptr) src->hierarchy.erase(mv.key);
    ++report.chunks_moved;
    report.bytes_moved += bytes.size();
    migrations_.fetch_add(1, std::memory_order_relaxed);
    count_fabric("migrations");
  }
  return report;
}

std::size_t Fabric::repair_replicas(std::optional<std::uint32_t> retired) {
  if (directory_.active_nodes().size() <= 1) return 0;
  std::size_t repaired = 0;
  util::Bytes bytes;
  const std::size_t slots = node_count();
  for (const auto& entry : directory_.snapshot()) {
    const auto loc = directory_.lookup(entry.key);
    if (!loc.has_value()) continue;
    const auto rkey = storage::StorageHierarchy::replica_key(entry.key);
    // Drop stale copies first (the old ring successor, and everything a
    // retired node still holds), then make sure the current successor has
    // one. Both passes are idempotent.
    for (std::size_t i = 0; i < slots; ++i) {
      if (loc->replica.has_value() && i == *loc->replica) continue;
      if (i == loc->owner) continue;
      Node* other = node_ptr(i);
      if (other != nullptr) other->hierarchy.erase(rkey);
    }
    if (retired.has_value()) {
      Node* old = node_ptr(*retired);
      if (old != nullptr && *retired != loc->owner) old->hierarchy.erase(entry.key);
    }
    if (!loc->replica.has_value()) continue;
    Node* rep = node_ptr(*loc->replica);
    if (rep == nullptr || rep->detached.load(std::memory_order_relaxed)) {
      continue;
    }
    if (rep->hierarchy.find(rkey).has_value()) continue;
    Node* owner = node_ptr(loc->owner);
    if (owner == nullptr) continue;
    try {
      owner->hierarchy.read(entry.key, bytes);
      rep->hierarchy.place(rkey, bytes);
      ++repaired;
    } catch (const Error&) {
      // Best-effort, like replicate_below: a replica is opportunistic.
    }
  }
  if (repaired > 0) count_fabric("replicas_repaired", repaired);
  return repaired;
}

// --- Failure simulation. ----------------------------------------------------

void Fabric::kill_node(std::size_t i) {
  Node* n = node_ptr(i);
  CANOPUS_CHECK(n != nullptr, "fabric: node index out of range");
  n->alive.store(false, std::memory_order_relaxed);
  // Dead storage, not just dead routing: every tier read on the node now
  // fails, so a request that raced the alive check still degrades to the
  // replica owner instead of being served by a "dead" node.
  auto injector = std::make_shared<storage::FaultInjector>(
      0x6b696c6cull ^ static_cast<std::uint64_t>(i));
  storage::FaultProfile profile;
  profile.read_error = 1.0;
  for (std::size_t t = 0; t < n->hierarchy.tier_count(); ++t) {
    injector->set_profile(t, profile);
  }
  n->hierarchy.attach_fault_injector(std::move(injector));
  count_fabric("node_kills");
}

void Fabric::revive_node(std::size_t i) {
  Node* n = node_ptr(i);
  CANOPUS_CHECK(n != nullptr, "fabric: node index out of range");
  n->hierarchy.attach_fault_injector(nullptr);
  n->alive.store(true, std::memory_order_relaxed);
}

bool Fabric::alive(std::size_t i) const {
  Node* n = node_ptr(i);
  CANOPUS_CHECK(n != nullptr, "fabric: node index out of range");
  return n->alive.load(std::memory_order_relaxed);
}

std::uint32_t Fabric::route_query(const std::string& path,
                                  const std::string& var) const {
  const auto per_node = directory_.owned_bytes_for_prefix(path + "/" + var + "/");
  std::optional<std::uint32_t> best;
  std::size_t best_bytes = 0;
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    // Draining and detached nodes are never routing targets: planning always
    // follows the live topology (the directory's active set).
    if (!alive(i) || !directory_.is_active(static_cast<std::uint32_t>(i))) {
      continue;
    }
    const std::size_t owned = i < per_node.size() ? per_node[i] : 0;
    if (!best.has_value() || owned > best_bytes) {
      best = static_cast<std::uint32_t>(i);
      best_bytes = owned;
    }
  }
  return best.value_or(0);
}

storage::IoResult Fabric::remote_read_from(std::size_t from_node,
                                           const std::string& key,
                                           util::Bytes& out) {
  bool crossed_network = false;
  return remote_read_one(from_node, key, out, /*charge_latency=*/true,
                         &crossed_network);
}

std::vector<storage::BatchReadResult> Fabric::remote_read_batch_from(
    std::size_t from_node, const std::vector<std::string>& keys) {
  std::vector<storage::BatchReadResult> out(keys.size());
  bool latency_paid = false;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    bool crossed_network = false;
    try {
      out[i].io = remote_read_one(from_node, keys[i], out[i].bytes,
                                  /*charge_latency=*/!latency_paid,
                                  &crossed_network);
    } catch (...) {
      out[i].error = std::current_exception();
    }
    // A failed op never charged the envelope, so it doesn't count as paying.
    latency_paid = latency_paid || crossed_network;
  }
  return out;
}

storage::IoResult Fabric::remote_read_one(std::size_t from_node,
                                          const std::string& key,
                                          util::Bytes& out, bool charge_latency,
                                          bool* crossed_network) {
  CANOPUS_SPAN("fabric.remote_read", {{"node", static_cast<int>(from_node)}});
  auto loc = directory_.lookup(key);
  if (!loc.has_value()) {
    failed_remote_reads_.fetch_add(1, std::memory_order_relaxed);
    count_fabric("failed_remote_reads");
    throw storage::TierIoError("fabric: no directory entry for '" + key + "'");
  }
  const auto envelope = [&](storage::IoResult io, std::size_t bytes) {
    io.sim_seconds += (charge_latency ? options_.remote_latency_seconds : 0.0) +
                      static_cast<double>(bytes) / options_.remote_bandwidth;
    *crossed_network = true;
    return io;
  };
  // Owner resolution with one epoch-aware retry: a migration cutover can
  // retire the owner's copy between our lookup and the read. Re-resolving
  // against the live directory finds the new owner; only when the owner is
  // genuinely unreachable do we degrade to the replica.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (loc->owner != from_node) {
      Node* owner = node_ptr(loc->owner);
      if (owner != nullptr &&
          owner->alive.load(std::memory_order_relaxed)) {
        try {
          auto io = owner->hierarchy.read(key, out);
          remote_reads_.fetch_add(1, std::memory_order_relaxed);
          count_fabric("remote_reads");
          return envelope(io, out.size());
        } catch (const Error&) {
          // Owner unreachable (killed mid-flight, or its copy faulted out
          // after retries): re-resolve, then degrade to the replica owner.
        }
      }
    }
    const auto fresh = directory_.lookup(key);
    if (!fresh.has_value() || fresh->owner == loc->owner) break;
    loc = fresh;  // ownership moved under us — retry against the new owner
  }
  if (loc->replica.has_value()) {
    Node* rep = node_ptr(*loc->replica);
    if (rep != nullptr && rep->alive.load(std::memory_order_relaxed)) {
      const std::size_t r = *loc->replica;
      try {
        auto io = rep->hierarchy.read(
            storage::StorageHierarchy::replica_key(key), out);
        io.from_replica = true;
        replica_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        count_fabric("replica_fallbacks");
        return r == from_node ? io : envelope(io, out.size());
      } catch (const Error&) {
      }
    }
  }
  failed_remote_reads_.fetch_add(1, std::memory_order_relaxed);
  count_fabric("failed_remote_reads");
  throw storage::TierIoError("fabric: no reachable copy of '" + key +
                             "' (owner node " + std::to_string(loc->owner) +
                             " unavailable)");
}

void Fabric::note_local_hit(std::size_t node, const std::string& key) {
  (void)node;
  (void)key;
  local_hits_.fetch_add(1, std::memory_order_relaxed);
  count_fabric("local_hits");
}

double Fabric::estimated_remote_cost(std::size_t from_node,
                                     const std::string& key,
                                     std::size_t bytes) const {
  const double envelope =
      options_.remote_latency_seconds +
      static_cast<double>(bytes) / options_.remote_bandwidth;
  if (const auto loc = directory_.lookup(key)) {
    Node* owner = node_ptr(loc->owner);
    if (loc->owner != from_node && owner != nullptr &&
        owner->alive.load(std::memory_order_relaxed)) {
      const auto& h = owner->hierarchy;
      if (const auto t = h.find(key)) {
        return h.tier(*t).read_cost(bytes) + envelope;
      }
    }
    if (loc->replica.has_value()) {
      Node* rep = node_ptr(*loc->replica);
      if (rep != nullptr && rep->alive.load(std::memory_order_relaxed)) {
        const std::size_t r = *loc->replica;
        const auto& h = rep->hierarchy;
        const auto rkey = storage::StorageHierarchy::replica_key(key);
        if (const auto t = h.find(rkey)) {
          return h.tier(*t).read_cost(bytes) +
                 (r == from_node ? 0.0 : envelope);
        }
      }
    }
  }
  // Unknown or unreachable key: pessimistic — a slowest-tier fetch plus the
  // network hop, so planning never undercounts a degraded resolution.
  const auto& h = node_ptr(from_node)->hierarchy;
  return h.tier(h.tier_count() - 1).read_cost(bytes) + envelope;
}

Fabric::Stats Fabric::stats() const {
  Stats s;
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.remote_reads = remote_reads_.load(std::memory_order_relaxed);
  s.replica_fallbacks = replica_fallbacks_.load(std::memory_order_relaxed);
  s.failed_remote_reads = failed_remote_reads_.load(std::memory_order_relaxed);
  s.migrations = migrations_.load(std::memory_order_relaxed);
  s.migration_failures = migration_failures_.load(std::memory_order_relaxed);
  return s;
}

void Fabric::update_occupancy_gauges() const {
  if (!obs::enabled()) return;
  auto& registry = obs::MetricsRegistry::global();
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    const auto& h = node_ptr(i)->hierarchy;
    for (std::size_t t = 0; t < h.tier_count(); ++t) {
      const auto [used, capacity] = h.tier_usage(t);
      (void)capacity;
      registry
          .gauge("fabric.node" + std::to_string(i) + ".tier" +
                 std::to_string(t) + "_used_bytes")
          .set(static_cast<std::int64_t>(used));
    }
  }
  registry.gauge("topology.epoch")
      .set(static_cast<std::int64_t>(directory_.epoch()));
}

void Fabric::set_node_access_listener(
    storage::StorageHierarchy::AccessListener l) {
  {
    std::scoped_lock lock(hooks_mu_);
    node_access_listener_ = l;
  }
  for (std::size_t i = 0; i < node_count(); ++i) {
    node_ptr(i)->hierarchy.attach_access_listener(l);
  }
}

void Fabric::set_node_move_listener(storage::StorageHierarchy::MoveListener l) {
  {
    std::scoped_lock lock(hooks_mu_);
    node_move_listener_ = l;
  }
  for (std::size_t i = 0; i < node_count(); ++i) {
    node_ptr(i)->hierarchy.attach_move_listener(l);
  }
}

}  // namespace canopus::fabric
