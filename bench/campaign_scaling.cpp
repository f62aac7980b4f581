// Campaign-scale write path: many timesteps of one variable over a static
// mesh, refactored in parallel.
//
// Backs two claims from the paper: refactoring is embarrassingly parallel
// (Section III-C1 — the collapse sequence is local and, with shortest-first
// priority, field-independent, so timesteps fan out across cores), and the
// one-time write cost is amortized over many analyses (Section III-A). The
// sweep reports wall-clock refactoring time vs worker count and the
// geometry-vs-data byte split.

#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "core/campaign.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto steps = static_cast<std::size_t>(cli.get_int("timesteps", 16));

  sim::XgcOptions opt;
  opt.rings = 40;
  opt.sectors = 200;
  const auto ds = sim::make_xgc_dataset(opt);
  const mesh::TriMesh& mesh = ds.mesh;
  // Evolve the plane over timesteps: amplitude drift plus a traveling wave,
  // all sampled on the campaign's one static mesh.
  std::vector<mesh::Field> timesteps;
  for (std::size_t t = 0; t < steps; ++t) {
    mesh::Field f(mesh.vertex_count());
    const double phase = 0.35 * static_cast<double>(t);
    for (mesh::VertexId v = 0; v < mesh.vertex_count(); ++v) {
      const auto p = mesh.vertex(v);
      f[v] = ds.values[v] * (1.0 + 0.04 * std::sin(phase)) +
             0.03 * std::sin(6.0 * std::atan2(p.y, p.x) + phase);
    }
    timesteps.push_back(std::move(f));
  }
  std::cout << "workload: " << steps << " timesteps x " << mesh.vertex_count()
            << " vertices\n\n";

  util::Table t({"threads", "geometry(s)", "refactor-wall(s)", "speedup",
                 "stored-KiB", "geometry-KiB"});
  double base_wall = 0.0;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> sweep{1, 2, 4, hw};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  for (std::size_t threads : sweep) {
    auto tiers = bench::make_two_tier(64 << 20);
    core::CampaignConfig config;
    config.refactor.levels = 3;
    config.refactor.codec = "zfp";
    config.refactor.error_bound = 1e-4;
    config.threads = threads;
    const auto report = core::write_campaign(tiers, "camp.bp", "dpot", mesh,
                                             timesteps, config);
    if (base_wall == 0.0) base_wall = report.refactor_wall_seconds;
    t.add_row({std::to_string(threads),
               util::Table::num(report.geometry_seconds, 3),
               util::Table::num(report.refactor_wall_seconds, 3),
               util::Table::num(base_wall / report.refactor_wall_seconds, 2),
               util::Table::num(static_cast<double>(report.stored_bytes) / 1024.0, 0),
               util::Table::num(static_cast<double>(report.geometry_bytes) / 1024.0, 0)});
  }
  t.print(std::cout, "Campaign refactoring scalability (single-node worker sweep)");
  std::cout << "\nNote: geometry (the L0 mesh, collapse logs and mappings) is\n"
               "written once per campaign; per-timestep products amortize it.\n";
  return 0;
}
