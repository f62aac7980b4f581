// Figure 4: the refactoring gallery — per dataset, the full-accuracy field
// L0, the 4x-decimated L2, and the two deltas used to restore the original.
//
// Prints the smoothness statistics that make the paper's visual point
// quantitative (deltas are flatter than the levels) and writes one PGM panel
// per item, matching the six-panel layout of Figs. 4a-4c.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/delta.hpp"
#include "mesh/cascade.hpp"
#include "mesh/mesh_io.hpp"
#include "util/stats.hpp"

using namespace canopus;

namespace {

void dump_panel(const mesh::TriMesh& mesh, const mesh::Field& values,
                const mesh::Aabb& bounds, const std::string& path) {
  const auto raster = analytics::rasterize(mesh, values, 240, 240, bounds, 0.0);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const double span = (*hi > *lo) ? 0.0 : 1.0;  // guard constant fields
  mesh::save_pgm(analytics::to_gray8(raster, *lo, *hi + span), 240, 240, path);
}

struct RowStats {
  double stddev, tv;
};

RowStats stats_of(const mesh::Field& f) {
  util::RunningStats rs;
  rs.add(f);
  return {rs.stddev(), util::total_variation(f)};
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const auto out_dir = cli.get("out", "/tmp");

  for (const auto& ds : sim::all_datasets(scale)) {
    mesh::CascadeOptions copt;
    copt.levels = 3;  // L0, L1, L2 -> 4x decimation at the base
    const auto cascade = mesh::build_cascade(ds.mesh, ds.values, copt);

    const auto map01 =
        core::build_mapping(cascade.levels[0].mesh, cascade.levels[1].mesh);
    const auto map12 =
        core::build_mapping(cascade.levels[1].mesh, cascade.levels[2].mesh);
    const auto delta01 = core::compute_delta(
        cascade.levels[1].mesh, cascade.levels[1].values,
        cascade.levels[0].mesh.vertices(), cascade.levels[0].values, map01,
        core::EstimateMode::kUniformThirds);
    const auto delta12 = core::compute_delta(
        cascade.levels[2].mesh, cascade.levels[2].values,
        cascade.levels[1].mesh.vertices(), cascade.levels[1].values, map12,
        core::EstimateMode::kUniformThirds);

    util::Table t({"product", "vertices", "stddev", "total-variation"});
    const auto add = [&](const std::string& name, const mesh::Field& f) {
      const auto s = stats_of(f);
      t.add_row({name, std::to_string(f.size()), util::Table::num(s.stddev, 5),
                 util::Table::num(s.tv, 5)});
    };
    add("L0", cascade.levels[0].values);
    add("L2 (4x)", cascade.levels[2].values);
    add("delta1-2", delta12);
    add("delta0-1", delta01);
    t.print(std::cout, "Fig. 4 " + ds.name + " (" + ds.variable +
                           ") refactoring products");

    const auto bounds = ds.mesh.bounds();
    dump_panel(cascade.levels[0].mesh, cascade.levels[0].values, bounds,
               out_dir + "/fig4_" + ds.name + "_L0.pgm");
    dump_panel(cascade.levels[2].mesh, cascade.levels[2].values, bounds,
               out_dir + "/fig4_" + ds.name + "_L2.pgm");
    dump_panel(cascade.levels[1].mesh, delta12, bounds,
               out_dir + "/fig4_" + ds.name + "_delta12.pgm");
    dump_panel(cascade.levels[0].mesh, delta01, bounds,
               out_dir + "/fig4_" + ds.name + "_delta01.pgm");
    std::cout << '\n';
  }
  std::cout << "panels written to " << cli.get("out", "/tmp")
            << "/fig4_*.pgm\nObservation: every delta has lower variability "
               "than the levels it\nreconstructs -- the pre-conditioning that "
               "drives Fig. 5.\n";
  return 0;
}
