#pragma once
// Builds the multi-level decimation hierarchy {L^0 ... L^{N-1}}.
//
// Level 0 is the original mesh/data; each subsequent level halves (by
// default) the vertex count via edge collapse, so the decimation ratio of
// level l relative to the original is d_l = step^l (the paper's d_l = 2^l).

#include <vector>

#include "mesh/decimate.hpp"
#include "mesh/tri_mesh.hpp"

namespace canopus::mesh {

struct CascadeOptions {
  /// Number of levels including the original; N=3 produces L0, L1, L2.
  std::size_t levels = 3;
  /// Per-step decimation ratio; the cumulative ratio at level l is step^l.
  double step = 2.0;
  DecimateOptions decimate;
};

struct Cascade {
  /// levels[l] holds G^l and L^l; levels[0] is the input.
  std::vector<LevelData> levels;
  /// logs[l] is the collapse log of the pass from level l to level l + 1, so
  /// replay_collapses(levels[l].mesh, logs[l]) == levels[l + 1].mesh. The
  /// writer stores these instead of the meshes of levels 1..N-1.
  std::vector<CollapseLog> logs;

  std::size_t level_count() const { return levels.size(); }
  const LevelData& base() const { return levels.back(); }

  /// |V^0| / |V^l|.
  double decimation_ratio(std::size_t l) const {
    return static_cast<double>(levels[0].mesh.vertex_count()) /
           static_cast<double>(levels[l].mesh.vertex_count());
  }
};

/// Runs `levels - 1` decimation passes and keeps each pass's collapse log.
/// Per-pass statistics (collapses, rejections, achieved ratio, survivor
/// slots) are recorded in `pass_stats` when non-null; their collapse logs
/// stay empty, since the cascade holds them.
Cascade build_cascade(const TriMesh& mesh, const Field& values,
                      const CascadeOptions& options,
                      std::vector<DecimateResult>* pass_stats = nullptr);

}  // namespace canopus::mesh
