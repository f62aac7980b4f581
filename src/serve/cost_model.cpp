#include "serve/cost_model.hpp"

#include "adios/bp.hpp"
#include "cache/block_cache.hpp"
#include "util/assert.hpp"

namespace canopus::serve {

CostModel CostModel::build(storage::StorageHierarchy& hierarchy,
                           const core::ProgressiveReader& reader) {
  CostModel model;
  const std::size_t levels = reader.level_count();
  if (levels <= 1) return model;
  model.steps_.assign(levels - 1, LevelCostEstimate{});
  for (std::uint32_t l = 0; l < model.steps_.size(); ++l) {
    model.steps_[l].level = l;
  }

  const cache::BlockCache* cache = hierarchy.block_cache();
  const adios::VarInfo& info = reader.var_info();
  for (const auto& b : info.blocks) {
    if (b.level >= model.steps_.size()) continue;  // base-level blocks
    // A step reads delta chunks only: every reader holds its geometry from
    // open and derives its mappings and chunk indexes from it.
    if (b.kind != adios::BlockKind::kDelta) continue;

    LevelCostEstimate& step = model.steps_[b.level];
    step.bytes += static_cast<std::size_t>(b.stored_bytes);
    cache::BlockCache::Residency residency;
    if (cache != nullptr) {
      residency = cache->probe(
          b.object_key, storage::StorageHierarchy::decoded_alias(b.object_key));
    }
    if (residency.blob) {
      ++step.cached_blocks;  // I/O free: the fetch is served from the cache
    } else {
      const auto stored = static_cast<std::size_t>(b.stored_bytes);
      // Charge the tier that holds the block now. A block no local tier
      // holds is remote-resident: the peer prices it with the network
      // envelope. One that no peer holds either fails its read, so it gets
      // the slowest tier's price.
      if (const auto local = hierarchy.find(b.object_key)) {
        step.io_seconds += hierarchy.tier(*local).read_cost(stored);
      } else if (const auto* remote = hierarchy.remote_store()) {
        step.io_seconds += remote->estimated_read_cost(b.object_key, stored);
      } else {
        step.io_seconds +=
            hierarchy.tier(hierarchy.tier_count() - 1).read_cost(stored);
      }
    }
    if (!residency.decoded) {
      step.compute_seconds +=
          kComputeSecondsPerValue * static_cast<double>(b.value_count);
    }
  }
  return model;
}

double CostModel::charged(const core::ProgressiveReader& reader) {
  const core::RetrievalTimings& spent = reader.cumulative();
  return spent.io_seconds +
         kComputeSecondsPerValue * static_cast<double>(spent.values_decoded);
}

const LevelCostEstimate& CostModel::step(std::uint32_t level) const {
  CANOPUS_CHECK(level < steps_.size(), "cost model: level out of range");
  return steps_[level];
}

double CostModel::cost_between(std::uint32_t from, std::uint32_t to) const {
  double cost = 0.0;
  for (std::uint32_t l = to; l < from && l < steps_.size(); ++l) {
    cost += steps_[l].total();
  }
  return cost;
}

std::uint32_t CostModel::reachable_level(std::uint32_t from, double budget,
                                         std::uint32_t floor_level) const {
  std::uint32_t level = from;
  double spent = 0.0;
  while (level > floor_level && level > 0) {
    const std::uint32_t next = level - 1;
    if (next >= steps_.size()) break;  // defensive: malformed metadata
    const double step_cost = steps_[next].total();
    if (spent + step_cost > budget) break;
    spent += step_cost;
    level = next;
  }
  return level;
}

}  // namespace canopus::serve
