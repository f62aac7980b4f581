#include "core/campaign.hpp"

#include <mutex>

#include "adios/bp.hpp"
#include "compress/codec.hpp"
#include "core/delta.hpp"
#include "mesh/cascade.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace canopus::core {

namespace {

/// Everything one timestep produces, compressed off the writer thread.
struct TimestepProducts {
  util::Bytes base;
  std::vector<util::Bytes> deltas;  // index l = delta^{l-(l+1)}
};

}  // namespace

std::string timestep_var(const std::string& var, std::size_t step) {
  return var + "/t" + std::to_string(step);
}

CampaignReport write_variable_group(
    storage::StorageHierarchy& hierarchy, const std::string& path,
    const std::string& geometry_var, const mesh::TriMesh& mesh,
    const std::vector<std::pair<std::string, mesh::Field>>& variables,
    const CampaignConfig& config) {
  CANOPUS_CHECK(!variables.empty(), "variable group needs at least one member");
  CANOPUS_CHECK(config.refactor.decimate.priority ==
                    mesh::EdgePriority::kShortestFirst,
                "campaign replay requires the shortest-first edge priority");
  for (const auto& [name, f] : variables) {
    CANOPUS_CHECK(f.size() == mesh.vertex_count(),
                  "variable group: field '" + name + "' does not match the mesh");
  }
  const auto& rc = config.refactor;
  const std::size_t N = rc.levels;

  CampaignReport report;
  report.timesteps = variables.size();
  report.raw_bytes = variables.size() * mesh.vertex_count() * sizeof(double);

  // ---- One-time geometry pipeline. ---------------------------------------
  util::WallTimer geometry_timer;
  mesh::CascadeOptions copt;
  copt.levels = N;
  copt.step = rc.step;
  copt.decimate = rc.decimate;
  std::vector<mesh::DecimateResult> recipes;
  const auto cascade =
      mesh::build_cascade(mesh, variables[0].second, copt, &recipes);

  std::vector<VertexMapping> mappings;  // mappings[l]: level l from level l+1
  for (std::size_t l = 0; l + 1 < N; ++l) {
    mappings.push_back(
        build_mapping(cascade.levels[l].mesh, cascade.levels[l + 1].mesh));
  }
  report.geometry_seconds = geometry_timer.seconds();

  adios::BpWriter writer(hierarchy, path);
  writer.set_attribute("levels", std::to_string(N));
  writer.set_attribute("codec", rc.codec);
  writer.set_attribute("estimate", to_string(rc.estimate));
  writer.set_attribute("group_size", std::to_string(variables.size()));

  for (std::size_t l = 0; l < N; ++l) {
    util::ByteWriter bytes;
    cascade.levels[l].mesh.serialize(bytes);
    const auto level = static_cast<std::uint32_t>(l);
    const auto t = writer.write_opaque(
        geometry_var, adios::BlockKind::kMesh, level, bytes.view(),
        tier_hint_for(rc, hierarchy, level, bytes.size()));
    report.io_sim_seconds += t.io_sim_seconds;
    report.geometry_bytes += t.bytes_written;
  }
  for (std::size_t l = 0; l + 1 < N; ++l) {
    util::ByteWriter bytes;
    mappings[l].serialize(bytes);
    const auto level = static_cast<std::uint32_t>(l);
    const auto t = writer.write_opaque(
        geometry_var, adios::BlockKind::kMapping, level, bytes.view(),
        tier_hint_for(rc, hierarchy, level, bytes.size()));
    report.io_sim_seconds += t.io_sim_seconds;
    report.geometry_bytes += t.bytes_written;
  }

  // ---- Per-timestep refactoring, fanned out on the pool. -----------------
  util::WallTimer refactor_timer;
  std::vector<TimestepProducts> products(variables.size());
  util::ThreadPool pool(config.threads);
  pool.parallel_for(0, variables.size(), [&](std::size_t lo, std::size_t hi) {
    const auto codec = compress::make_codec(rc.codec);
    for (std::size_t t = lo; t < hi; ++t) {
      // Decimate by replaying the recorded collapse sequences.
      std::vector<mesh::Field> level_values;
      level_values.reserve(N);
      level_values.push_back(variables[t].second);
      for (std::size_t l = 1; l < N; ++l) {
        level_values.push_back(
            mesh::replay_decimation(recipes[l - 1], level_values.back()));
      }
      auto& out = products[t];
      out.base = codec->encode(level_values[N - 1], rc.error_bound);
      out.deltas.resize(N >= 1 ? N - 1 : 0);
      for (std::size_t l = 0; l + 1 < N; ++l) {
        const auto delta = compute_delta(
            cascade.levels[l + 1].mesh, level_values[l + 1], level_values[l],
            mappings[l], rc.estimate);
        out.deltas[l] = codec->encode(delta, rc.error_bound);
      }
    }
  });
  report.refactor_wall_seconds = refactor_timer.seconds();

  // ---- Placement (serial: the writer and hierarchy are single-threaded,
  // matching one I/O aggregator per storage target). ----------------------
  const auto base_level = static_cast<std::uint32_t>(N - 1);
  for (std::size_t t = 0; t < variables.size(); ++t) {
    const auto& tvar = variables[t].first;
    const auto& out = products[t];
    {
      const auto wt = writer.write_precompressed(
          tvar, adios::BlockKind::kBase, base_level, out.base, rc.codec,
          rc.error_bound, cascade.levels[N - 1].values.size(),
          tier_hint_for(rc, hierarchy, base_level, out.base.size()));
      report.io_sim_seconds += wt.io_sim_seconds;
      report.stored_bytes += wt.bytes_written;
    }
    for (std::size_t l = 0; l + 1 < N; ++l) {
      const auto level = static_cast<std::uint32_t>(l);
      const auto wt = writer.write_precompressed(
          tvar, adios::BlockKind::kDelta, level, out.deltas[l], rc.codec,
          rc.error_bound, cascade.levels[l].values.size(),
          tier_hint_for(rc, hierarchy, level, out.deltas[l].size()));
      report.io_sim_seconds += wt.io_sim_seconds;
      report.stored_bytes += wt.bytes_written;
    }
  }
  writer.close();
  return report;
}

CampaignReport write_campaign(storage::StorageHierarchy& hierarchy,
                              const std::string& path, const std::string& var,
                              const mesh::TriMesh& mesh,
                              const std::vector<mesh::Field>& timesteps,
                              const CampaignConfig& config) {
  std::vector<std::pair<std::string, mesh::Field>> members;
  members.reserve(timesteps.size());
  for (std::size_t t = 0; t < timesteps.size(); ++t) {
    members.emplace_back(timestep_var(var, t), timesteps[t]);
  }
  return write_variable_group(hierarchy, path, var, mesh, members, config);
}

}  // namespace canopus::core
