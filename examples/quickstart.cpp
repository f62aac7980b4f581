// Quickstart: refactor a simulation variable with Canopus, then read it back
// progressively at increasing accuracy.
//
//   $ ./quickstart
//
// Walks the full write path (decimate -> delta -> compress -> place) and the
// full read path (base -> refine -> refine), printing sizes and timings.

#include <cstdio>

#include "core/canopus.hpp"
#include "mesh/generators.hpp"
#include "storage/hierarchy.hpp"
#include "util/stats.hpp"

using namespace canopus;

int main() {
  // 1. A two-tier storage hierarchy: fast-but-small tmpfs over a large PFS.
  storage::StorageHierarchy tiers(
      {storage::tmpfs_spec(4 << 20), storage::lustre_spec(1 << 30)});

  // 2. Simulation output: a scalar field on an unstructured triangular mesh.
  const auto mesh = mesh::make_annulus_mesh(48, 240, 0.3, 1.0, 0.12, 42);
  mesh::Field values(mesh.vertex_count());
  for (mesh::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    values[v] = std::sin(3.0 * p.x) * std::cos(4.0 * p.y);
  }
  std::printf("simulation output: %zu vertices, %zu triangles (%.1f KiB raw)\n",
              mesh.vertex_count(), mesh.triangle_count(),
              static_cast<double>(values.size() * sizeof(double)) / 1024.0);

  // 3. Refactor into 3 accuracy levels and write across the tiers, through
  //    the Pipeline facade: option-struct request in, Status out.
  Pipeline pipeline(tiers);
  WriteRequest wreq;
  wreq.path = "quickstart.bp";
  wreq.var = "field";
  wreq.mesh = &mesh;
  wreq.values = &values;
  wreq.config.levels = 3;          // L0 (full), L1 (2x), L2 (4x, the base)
  wreq.config.codec = "zfp";
  wreq.config.error_bound = 1e-6;  // absolute bound per stored product
  WriteResult wres;
  const Status ws = pipeline.write(wreq, &wres);
  if (!ws.ok()) {
    std::printf("write failed: %s\n", ws.to_string().c_str());
    return 1;
  }
  const auto& report = wres.report;

  std::printf("\nrefactored products:\n");
  for (const auto& p : report.products) {
    std::printf("  %-7s level %u  %7.1f KiB -> %7.1f KiB  on tier %u (%s)\n",
                p.name.c_str(), p.level,
                static_cast<double>(p.raw_bytes) / 1024.0,
                static_cast<double>(p.stored_bytes) / 1024.0, p.tier,
                tiers.tier(p.tier).spec().name.c_str());
  }

  // 4. Progressive read-back: open at base accuracy, then refine on demand.
  //    (pipeline.read() would fetch a target level in one call; open() hands
  //    out the step-wise reader for interactive refinement.) Without a
  //    GeometryCache in the request, the open also loads the geometry, so
  //    every refinement step reads only its delta.
  ReadRequest rreq;
  rreq.path = "quickstart.bp";
  rreq.var = "field";
  std::unique_ptr<core::ProgressiveReader> reader;
  const Status rs = pipeline.open(rreq, &reader);
  if (!rs.ok()) {
    std::printf("open failed: %s\n", rs.to_string().c_str());
    return 1;
  }
  std::printf("\nprogressive retrieval:\n");
  std::printf("  level %u (base + geometry): %zu vertices, decimation %.1fx, "
              "io %.2f ms\n",
              reader->current_level(), reader->values().size(),
              reader->decimation_ratio(),
              reader->cumulative().io_seconds * 1e3);
  while (!reader->at_full_accuracy()) {
    const auto t = reader->refine();
    std::printf(
        "  level %u: %zu vertices, io %.2f ms, decompress %.2f ms, restore %.2f ms\n",
        reader->current_level(), reader->values().size(), t.io_seconds * 1e3,
        t.decompress_seconds * 1e3, t.restore_seconds * 1e3);
  }

  const double err = util::max_abs_error(values, reader->values());
  std::printf("\nfull-accuracy max restoration error: %.2e (budget %.2e)\n", err,
              3.0 * wreq.config.error_bound);
  return err <= 3.0 * wreq.config.error_bound ? 0 : 1;
}
