#pragma once
// Campaign-scale refactoring: many timesteps of one variable over a static
// simulation mesh.
//
// This is the regime the paper targets ("simulation results need to be
// written once but analyzed a number of times"; XGC1 writes its grid data
// every few timesteps over a fixed mesh). The geometry pipeline — decimation
// cascade, restoration mappings — depends only on the mesh when the edge
// priority is shortest-first, so it runs once and stores the L0 mesh and its
// collapse logs once; each timestep then decimates by *replaying* the
// recorded collapse sequence, computes its deltas against the shared
// mappings, compresses, and is placed on the hierarchy. Readers derive the
// mappings from the stored geometry (GeometryCache::load). Timesteps are
// independent, so the per-timestep work fans out on a thread pool (the
// paper's "embarrassingly parallel" refactoring claim).
//
// The container layout names each timestep's blocks "<var>/t<k>", and the
// shared geometry lives under "<var>" itself, so a GeometryCache loaded for
// `var` serves every timestep's ProgressiveReader.

#include <string>
#include <vector>

#include "core/refactorer.hpp"
#include "core/types.hpp"
#include "mesh/tri_mesh.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::core {

struct CampaignConfig {
  RefactorConfig refactor;
  /// Worker threads for per-timestep refactoring (0 = hardware concurrency).
  std::size_t threads = 0;
};

struct CampaignReport {
  std::size_t timesteps = 0;
  std::size_t raw_bytes = 0;
  std::size_t stored_bytes = 0;       // data products only (base + deltas)
  std::size_t geometry_bytes = 0;     // one-time L0 mesh and collapse logs
  double geometry_seconds = 0.0;      // cascade + mapping build (wall)
  double refactor_wall_seconds = 0.0; // parallel per-timestep phase (wall)
  double io_sim_seconds = 0.0;        // simulated placement cost
};

/// Variable name for one timestep's blocks.
std::string timestep_var(const std::string& var, std::size_t step);

/// The general primitive: refactors several named fields that share one mesh
/// (different variables of a run, timesteps, toroidal planes of a 3-D
/// variable — anything sampled on the same geometry) and writes them plus a
/// single copy of the shared geometry (stored under `geometry_var`) into the
/// container at `path`. Readers load one GeometryCache for `geometry_var`
/// and open ProgressiveReaders per member name. Requires kShortestFirst edge
/// priority (the replayed collapse sequence must be field-independent).
CampaignReport write_variable_group(
    storage::StorageHierarchy& hierarchy, const std::string& path,
    const std::string& geometry_var, const mesh::TriMesh& mesh,
    const std::vector<std::pair<std::string, mesh::Field>>& variables,
    const CampaignConfig& config);

/// Timestep campaign: write_variable_group with members named
/// timestep_var(var, 0..N-1) and the geometry under `var`.
CampaignReport write_campaign(storage::StorageHierarchy& hierarchy,
                              const std::string& path, const std::string& var,
                              const mesh::TriMesh& mesh,
                              const std::vector<mesh::Field>& timesteps,
                              const CampaignConfig& config);

}  // namespace canopus::core
