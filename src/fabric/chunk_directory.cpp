#include "fabric/chunk_directory.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace canopus::fabric {

ChunkDirectory::ChunkDirectory(std::size_t nodes, Partition partition)
    : partition_(partition) {
  CANOPUS_CHECK(nodes >= 1, "directory needs at least one node");
  active_.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    active_[i] = static_cast<std::uint32_t>(i);
  }
}

std::uint32_t ChunkDirectory::hash_owner(const std::string& key,
                                         std::size_t nodes) {
  CANOPUS_ASSERT(nodes >= 1);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h % nodes);
}

std::uint32_t ChunkDirectory::range_owner(std::uint32_t chunk,
                                          std::uint32_t chunk_count,
                                          std::size_t nodes) {
  CANOPUS_ASSERT(nodes >= 1);
  CANOPUS_ASSERT(chunk_count >= 1 && chunk < chunk_count);
  // chunk < chunk_count gives owner <= (chunk_count-1)*nodes/chunk_count
  // < nodes: total. The preimage of each owner is a contiguous interval:
  // disjoint, and non-empty whenever nodes <= chunk_count.
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(chunk) * nodes / chunk_count);
}

std::optional<std::uint32_t> ChunkDirectory::replica_of(std::uint32_t owner,
                                                        std::size_t nodes) {
  if (nodes <= 1) return std::nullopt;
  return static_cast<std::uint32_t>((owner + 1) % nodes);
}

std::uint32_t ChunkDirectory::owner_for_locked(
    const std::string& key, std::uint32_t chunk,
    std::uint32_t chunk_count) const {
  CANOPUS_ASSERT(!active_.empty());
  const std::uint32_t slot =
      (partition_ == Partition::kMortonRange && chunk_count > 1)
          ? range_owner(chunk, chunk_count, active_.size())
          : hash_owner(key, active_.size());
  return active_[slot];
}

std::uint32_t ChunkDirectory::owner_for(const std::string& key,
                                        std::uint32_t chunk,
                                        std::uint32_t chunk_count) const {
  std::scoped_lock lock(mu_);
  return owner_for_locked(key, chunk, chunk_count);
}

std::uint32_t ChunkDirectory::assign(const std::string& key,
                                     std::uint32_t chunk,
                                     std::uint32_t chunk_count,
                                     std::size_t bytes) {
  std::scoped_lock lock(mu_);
  const std::uint32_t owner = owner_for_locked(key, chunk, chunk_count);
  entries_[key] = Entry{chunk, chunk_count, bytes, owner};
  return owner;
}

std::optional<ChunkLocation> ChunkDirectory::lookup(
    const std::string& key) const {
  std::scoped_lock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  const std::uint32_t owner = it->second.owner;
  // Replica: the next *active* node after the owner in ring order. An owner
  // mid-drain may itself no longer be active; the ring still wraps over the
  // active ids.
  std::optional<std::uint32_t> replica;
  if (active_.size() > 1 || (active_.size() == 1 && active_[0] != owner)) {
    auto next = std::upper_bound(active_.begin(), active_.end(), owner);
    if (next == active_.end()) next = active_.begin();
    if (*next != owner) replica = *next;
  }
  return ChunkLocation{owner, replica};
}

RebalancePlan ChunkDirectory::plan_locked() const {
  RebalancePlan plan;
  for (const auto& [key, entry] : entries_) {
    const std::uint32_t target =
        owner_for_locked(key, entry.chunk, entry.chunk_count);
    if (target != entry.owner) {
      plan.moves.push_back(ChunkMove{key, entry.owner, target, entry.bytes});
    }
  }
  return plan;
}

RebalancePlan ChunkDirectory::attach_node(std::uint32_t id) {
  std::scoped_lock lock(mu_);
  CANOPUS_CHECK(!std::binary_search(active_.begin(), active_.end(), id),
                "attach_node: node " + std::to_string(id) +
                    " is already active");
  active_.insert(std::upper_bound(active_.begin(), active_.end(), id), id);
  ++epoch_;
  return plan_locked();
}

RebalancePlan ChunkDirectory::detach_node(std::uint32_t id) {
  std::scoped_lock lock(mu_);
  const auto it = std::lower_bound(active_.begin(), active_.end(), id);
  CANOPUS_CHECK(it != active_.end() && *it == id,
                "detach_node: node " + std::to_string(id) + " is not active");
  CANOPUS_CHECK(active_.size() > 1,
                "detach_node: cannot detach the last active node");
  active_.erase(it);
  ++epoch_;
  return plan_locked();
}

RebalancePlan ChunkDirectory::plan_rebalance() {
  std::scoped_lock lock(mu_);
  return plan_locked();
}

void ChunkDirectory::commit_move(const std::string& key,
                                 std::uint32_t new_owner) {
  std::scoped_lock lock(mu_);
  const auto it = entries_.find(key);
  CANOPUS_CHECK(it != entries_.end(),
                "commit_move: no directory entry for '" + key + "'");
  it->second.owner = new_owner;
}

std::uint64_t ChunkDirectory::epoch() const {
  std::scoped_lock lock(mu_);
  return epoch_;
}

std::vector<std::uint32_t> ChunkDirectory::active_nodes() const {
  std::scoped_lock lock(mu_);
  return active_;
}

bool ChunkDirectory::is_active(std::uint32_t id) const {
  std::scoped_lock lock(mu_);
  return std::binary_search(active_.begin(), active_.end(), id);
}

std::vector<ChunkDirectory::EntryView> ChunkDirectory::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<EntryView> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out.push_back(EntryView{key, entry.owner, entry.bytes});
  }
  return out;
}

std::size_t ChunkDirectory::node_count() const {
  std::scoped_lock lock(mu_);
  return active_.size();
}

std::size_t ChunkDirectory::size() const {
  std::scoped_lock lock(mu_);
  return entries_.size();
}

std::vector<std::size_t> ChunkDirectory::owned_bytes() const {
  return owned_bytes_for_prefix("");
}

std::vector<std::size_t> ChunkDirectory::owned_bytes_for_prefix(
    const std::string& prefix) const {
  std::scoped_lock lock(mu_);
  // Indexed by stable node id: one past the largest id that is active or
  // still holds entries mid-drain.
  std::size_t limit = active_.empty() ? 0 : active_.back() + 1;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    limit = std::max(limit, static_cast<std::size_t>(it->second.owner) + 1);
  }
  std::vector<std::size_t> per_node(limit, 0);
  // entries_ is ordered, so the matching keys form one contiguous range.
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    per_node[it->second.owner] += it->second.bytes;
  }
  return per_node;
}

}  // namespace canopus::fabric
