// The paper's flagship use case (Section IV-D): progressive blob detection on
// fusion (XGC1-like) data.
//
//   $ ./fusion_blob_exploration [--levels=6] [--raster=300] [--out=/tmp]
//
// A scientist scans for high-electric-potential blobs on the cheap base
// dataset first, then zooms in by refining accuracy only as far as the
// features require. The example prints blob statistics per accuracy level and
// dumps a PGM panel per level (the macroscopic view of Fig. 7).

#include <algorithm>
#include <cstdio>

#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "core/canopus.hpp"
#include "mesh/mesh_io.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/cli.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto levels = static_cast<std::size_t>(cli.get_int("levels", 6));
  const auto raster_px = static_cast<std::size_t>(cli.get_int("raster", 300));
  const auto out_dir = cli.get("out", "/tmp");

  // Synthetic stand-in for one XGC1 dpot plane (~20.7k vertices).
  std::vector<sim::BlobSpec> truth;
  const auto ds = sim::make_xgc_dataset({}, &truth);
  std::printf("xgc1 dpot plane: %zu vertices, %zu triangles, %zu injected blobs\n",
              ds.mesh.vertex_count(), ds.mesh.triangle_count(), truth.size());

  storage::StorageHierarchy tiers(
      {storage::tmpfs_spec(1 << 20), storage::lustre_spec(1 << 30)});
  core::RefactorConfig config;
  config.levels = levels;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  core::refactor_and_write(tiers, "xgc.bp", "dpot", ds.mesh, ds.values, config);

  // Fixed raster frame and intensity range from the full-accuracy data so
  // images at every level are comparable.
  const auto bounds = ds.mesh.bounds();
  const auto [lo_it, hi_it] = std::minmax_element(ds.values.begin(), ds.values.end());
  const double lo = *lo_it, hi = *hi_it;

  analytics::BlobParams params;  // the paper's Config1: <10, 200, 100>
  params.min_threshold = 10;
  params.max_threshold = 200;
  params.min_area = 100;

  // Reference blobs from the full-accuracy field.
  const auto full_raster = analytics::rasterize(ds.mesh, ds.values, raster_px,
                                                raster_px, bounds, lo);
  const auto reference = analytics::detect_blobs(
      analytics::to_gray8(full_raster, lo, hi), raster_px, raster_px, params);
  std::printf("reference (L0): %zu blobs detected\n\n", reference.size());

  // Geometry is loaded once per campaign, off the per-read path.
  const auto geometry = core::GeometryCache::load(tiers, "xgc.bp", "dpot");
  core::ProgressiveReader reader(tiers, "xgc.bp", "dpot", &geometry);
  std::printf("%-6s %-10s %-7s %-9s %-9s %-8s %s\n", "level", "decimation",
              "blobs", "avg-diam", "area", "overlap", "cumulative-io(ms)");
  for (;;) {
    const auto raster = analytics::rasterize(reader.current_mesh(), reader.values(),
                                             raster_px, raster_px, bounds, lo);
    const auto img = analytics::to_gray8(raster, lo, hi);
    const auto blobs = analytics::detect_blobs(img, raster_px, raster_px, params);
    const auto stats = analytics::summarize(blobs);
    const double overlap = analytics::overlap_ratio(blobs, reference);
    std::printf("L%-5u %-10.1f %-7zu %-9.1f %-9.0f %-8.2f %.2f\n",
                reader.current_level(), reader.decimation_ratio(), stats.count,
                stats.mean_diameter, stats.aggregate_area, overlap,
                reader.cumulative().io_seconds * 1e3);
    mesh::save_pgm(img, raster_px, raster_px,
                   out_dir + "/blobs_L" + std::to_string(reader.current_level()) +
                       ".pgm");
    if (reader.at_full_accuracy()) break;
    reader.refine();
  }
  std::printf("\npanels written to %s/blobs_L*.pgm (Fig. 7 style)\n",
              out_dir.c_str());
  return 0;
}
