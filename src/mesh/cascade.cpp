#include "mesh/cascade.hpp"

#include "util/assert.hpp"

namespace canopus::mesh {

Cascade build_cascade(const TriMesh& mesh, const Field& values,
                      const CascadeOptions& options,
                      std::vector<DecimateResult>* pass_stats) {
  CANOPUS_CHECK(options.levels >= 1, "cascade needs at least one level");
  CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                "field size does not match vertex count");
  Cascade c;
  c.levels.reserve(options.levels);
  c.logs.reserve(options.levels - 1);
  c.levels.push_back(LevelData{mesh, values});
  DecimateOptions step = options.decimate;
  step.ratio = options.step;
  for (std::size_t l = 1; l < options.levels; ++l) {
    const auto& prev = c.levels.back();
    DecimateResult r = decimate(prev.mesh, prev.values, step);
    CANOPUS_CHECK(r.mesh.vertex_count() >= 3,
                  "decimation exhausted the mesh; reduce levels or step");
    c.levels.push_back(LevelData{std::move(r.mesh), std::move(r.values)});
    c.logs.push_back(std::move(r.collapse_log));
    if (pass_stats) {
      // Keep the meshes and the log out of the stats to avoid duplicating
      // them; the survivor slots travel along for replay_decimation.
      DecimateResult stats;
      stats.achieved_ratio = r.achieved_ratio;
      stats.collapses = r.collapses;
      stats.rejected = r.rejected;
      stats.survivor_slots = std::move(r.survivor_slots);
      pass_stats->push_back(std::move(stats));
    }
  }
  return c;
}

}  // namespace canopus::mesh
