// Focused data retrieval (Sections III-E and IV-D): scan for features on the
// cheap base dataset, then fetch *only the high-accuracy delta chunks around
// the detected features* — "this can help scientists to quickly scan for
// features at low accuracy, then zoom into areas with features by fetching a
// subset of high accuracy data."
//
//   $ ./roi_zoom [--chunks=64] [--raster=300]

#include <algorithm>
#include <cstdio>

#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "core/canopus.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/cli.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto chunks = static_cast<std::uint32_t>(cli.get_int("chunks", 64));
  const auto raster_px = static_cast<std::size_t>(cli.get_int("raster", 300));

  const auto ds = sim::make_xgc_dataset({});
  storage::StorageHierarchy tiers(
      {storage::tmpfs_spec(1 << 20), storage::lustre_spec(1 << 30)});
  core::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  config.delta_chunks = chunks;  // spatially chunked deltas enable the zoom
  Pipeline pipeline(tiers);
  WriteRequest wreq;
  wreq.path = "xgc.bp";
  wreq.var = "dpot";
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config = config;
  if (!pipeline.write(wreq).ok()) return 1;
  const auto geometry = core::GeometryCache::load(tiers, "xgc.bp", "dpot");

  // --- Step 1: scan the base dataset for blobs. ---------------------------
  // The zoom loop drives refinement interactively, so open() the step-wise
  // reader rather than issuing one-shot pipeline.read() calls.
  ReadRequest rreq;
  rreq.path = "xgc.bp";
  rreq.var = "dpot";
  rreq.geometry = &geometry;
  std::unique_ptr<core::ProgressiveReader> reader_ptr;
  if (!pipeline.open(rreq, &reader_ptr).ok()) return 1;
  auto& reader = *reader_ptr;
  const auto bounds = ds.mesh.bounds();
  const double hi = *std::max_element(ds.values.begin(), ds.values.end());
  analytics::BlobParams params;
  params.min_threshold = 10;
  params.max_threshold = 200;
  params.min_area = 60;
  const auto raster = analytics::rasterize(reader.current_mesh(), reader.values(),
                                           raster_px, raster_px, bounds, 0.0);
  const auto blobs = analytics::detect_blobs(analytics::to_gray8(raster, 0.0, hi),
                                             raster_px, raster_px, params);
  std::printf("base scan (decimation %.0fx): %zu candidate blobs, io %.3f ms\n",
              reader.decimation_ratio(), blobs.size(),
              reader.cumulative().io_seconds * 1e3);

  // --- Step 2: zoom — refine only around the most prominent blob.
  // (detect_blobs sorts by area, so blobs[0] is the biggest feature; a real
  // workflow would loop this step over whichever features look interesting.)
  if (blobs.empty()) {
    std::printf("no blobs found; nothing to zoom into\n");
    return 0;
  }
  const auto& target = blobs.front();
  const double px_to_x = bounds.width() / static_cast<double>(raster_px);
  const double px_to_y = bounds.height() / static_cast<double>(raster_px);
  const mesh::Vec2 center{bounds.lo.x + target.center.x * px_to_x,
                          bounds.lo.y + target.center.y * px_to_y};
  const double rx = (target.radius() + 6.0) * px_to_x;
  const double ry = (target.radius() + 6.0) * px_to_y;
  mesh::Aabb roi;
  roi.lo = {center.x - rx, center.y - ry};
  roi.hi = {center.x + rx, center.y + ry};
  std::printf("zoom region: [%.2f, %.2f] x [%.2f, %.2f]\n", roi.lo.x, roi.hi.x,
              roi.lo.y, roi.hi.y);

  std::size_t roi_bytes = 0;
  while (!reader.at_full_accuracy()) {
    const auto step = reader.refine_region(roi);
    roi_bytes += step.bytes_read;
    std::printf("  refined to level %u inside the region: %zu bytes, io %.3f ms\n",
                reader.current_level(), step.bytes_read, step.io_seconds * 1e3);
  }

  // --- Compare against a full-accuracy fetch. ------------------------------
  core::ProgressiveReader full(tiers, "xgc.bp", "dpot", &geometry);
  const auto base_bytes = full.cumulative().bytes_read;
  full.refine_to(0);
  const std::size_t full_bytes = full.cumulative().bytes_read - base_bytes;
  // Inside the region the zoomed field is the full refine's, bit for bit.
  std::size_t inside = 0, differ = 0;
  for (mesh::VertexId v = 0; v < ds.mesh.vertex_count(); ++v) {
    const auto p = ds.mesh.vertex(v);
    if (p.x < roi.lo.x || p.x > roi.hi.x || p.y < roi.lo.y || p.y > roi.hi.y) {
      continue;
    }
    ++inside;
    if (reader.values()[v] != full.values()[v]) ++differ;
  }
  std::printf("\nfocused zoom moved %zu bytes vs %zu for full refinement "
              "(%.0f%% saved); %zu of the region's %zu values differ from the "
              "full refine's.\n",
              roi_bytes, full_bytes,
              100.0 * (1.0 - static_cast<double>(roi_bytes) /
                                 static_cast<double>(full_bytes)),
              differ, inside);
  return differ == 0 ? 0 : 1;
}
