// Pipeline's topology control plane. These members are declared in
// core/pipeline.hpp but defined here in the fabric module (which links
// against core) so that core itself never references fabric symbols —
// the same layering trick as serve/pipeline_serve.cpp, which plugs the
// fabric in (Pipeline::attach_fabric).

#include <utility>

#include "core/pipeline.hpp"
#include "fabric/chunk_directory.hpp"
#include "fabric/fabric.hpp"

namespace canopus {

namespace {

Status no_fabric(const char* entry_point) {
  return Status::failure(
      StatusCode::kInvalidArgument,
      std::string(entry_point) +
          ": no fabric attached (call Pipeline::attach_fabric first)");
}

/// Folds a completed migration into the facade's Status vocabulary:
/// kIoError when moves were abandoned (unreadable source or full
/// destination), kOk otherwise.
Status status_from_migration(const fabric::MigrationReport& report) {
  if (report.failed > 0) {
    return Status::failure(
        StatusCode::kIoError,
        std::to_string(report.failed) + " of " +
            std::to_string(report.failed + report.chunks_moved) +
            " chunk move(s) abandoned (no readable copy or no room on the "
            "new owner)");
  }
  return Status::success();
}

}  // namespace

Status Pipeline::attach_node(std::uint32_t* id) {
  fabric::Fabric* f = serving_fabric();
  if (f == nullptr) return no_fabric("attach_node");
  try {
    return status_from_migration(f->attach_node(id));
  } catch (...) {
    return status_from_current_exception(StatusCode::kInvalidArgument);
  }
}

Status Pipeline::detach_node(std::uint32_t id) {
  fabric::Fabric* f = serving_fabric();
  if (f == nullptr) return no_fabric("detach_node");
  try {
    return status_from_migration(f->detach_node(id));
  } catch (...) {
    // Detaching the last active node (or an unknown/detached id) is a caller
    // bug, reported as such instead of aborting.
    return status_from_current_exception(StatusCode::kInvalidArgument);
  }
}

Topology Pipeline::topology() const {
  Topology topo;
  fabric::Fabric* f = serving_fabric();
  if (f == nullptr) {
    // Single-node deployment: one implicit node over the pipeline's own
    // hierarchy, epoch 0 (the topology cannot change without a fabric).
    Topology::Node n;
    for (std::size_t t = 0; t < hierarchy_->tier_count(); ++t) {
      n.tiers.push_back(hierarchy_->tier(t).spec().name);
      n.used_bytes += hierarchy_->tier(t).used_bytes();
    }
    topo.nodes.push_back(std::move(n));
    return topo;
  }

  topo.epoch = f->topology_epoch();
  topo.migrations = f->stats().migrations;
  const auto entries = f->directory().snapshot();
  topo.chunk_groups = entries.size();
  const std::size_t count = f->node_count();
  topo.nodes.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    Topology::Node& n = topo.nodes[i];
    n.id = static_cast<std::uint32_t>(i);
    n.alive = f->alive(i);
    n.active = f->attached(i) &&
               f->directory().is_active(static_cast<std::uint32_t>(i));
    const storage::StorageHierarchy& h = f->node(i);
    for (std::size_t t = 0; t < h.tier_count(); ++t) {
      n.tiers.push_back(h.tier(t).spec().name);
      n.used_bytes += h.tier(t).used_bytes();
    }
  }
  for (const auto& entry : entries) {
    if (entry.owner < topo.nodes.size()) {
      topo.nodes[entry.owner].owned_bytes += entry.bytes;
    }
  }
  return topo;
}

}  // namespace canopus
