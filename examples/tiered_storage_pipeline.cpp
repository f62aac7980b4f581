// Co-design of analytics and storage: refactor all three evaluation datasets
// onto a deep (4-tier) hierarchy and show where every product lands, how much
// capacity each tier consumes, and what each access pattern costs.
//
//   $ ./tiered_storage_pipeline [--scale=0.5]
//
// Demonstrates the Fig. 1 / Fig. 2 story: base datasets on NVRAM-class
// storage, deltas cascading down to the parallel file system and campaign
// storage, and the bypass rule when a tier fills up.

#include <cstdio>

#include "core/canopus.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/cli.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5);

  // A deep hierarchy: NVRAM / SSD / Lustre / campaign. The NVRAM tier is
  // deliberately small so large products overflow downward.
  storage::StorageHierarchy tiers({
      storage::nvram_spec(256 << 10),
      storage::ssd_spec(8 << 20),
      storage::lustre_spec(1 << 30),
      storage::campaign_spec(8ull << 30),
  });

  Pipeline pipeline(tiers);
  core::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-5;

  std::printf("%-9s %-8s %-6s %10s %10s  %s\n", "dataset", "product", "level",
              "raw KiB", "stored KiB", "tier");
  for (const auto& ds : sim::all_datasets(scale)) {
    WriteRequest wreq;
    wreq.path = ds.name + ".bp";
    wreq.var = ds.variable;
    wreq.mesh = &ds.mesh;
    wreq.values = &ds.values;
    wreq.config = config;
    WriteResult wres;
    const Status ws = pipeline.write(wreq, &wres);
    if (!ws.ok()) {
      std::printf("write of %s failed: %s\n", ds.name.c_str(),
                  ws.to_string().c_str());
      return 1;
    }
    for (const auto& p : wres.report.products) {
      std::printf("%-9s %-8s %-6u %10.1f %10.1f  %u (%s)\n", ds.name.c_str(),
                  p.name.c_str(), p.level,
                  static_cast<double>(p.raw_bytes) / 1024.0,
                  static_cast<double>(p.stored_bytes) / 1024.0, p.tier,
                  tiers.tier(p.tier).spec().name.c_str());
    }
  }

  std::printf("\ntier occupancy:\n");
  for (std::size_t i = 0; i < tiers.tier_count(); ++i) {
    const auto& t = tiers.tier(i);
    std::printf("  %-10s %8.1f / %10.1f KiB used\n", t.spec().name.c_str(),
                static_cast<double>(t.used_bytes()) / 1024.0,
                static_cast<double>(t.spec().capacity_bytes) / 1024.0);
  }

  // Access-cost story: reading the base vs restoring everything.
  std::printf("\naccess costs (simulated):\n");
  for (const char* name : {"xgc1", "genasis", "cfd"}) {
    const std::string var = std::string(name) == "xgc1"      ? "dpot"
                            : std::string(name) == "genasis" ? "normVec"
                                                             : "pressure";
    ReadRequest rreq;
    rreq.path = std::string(name) + ".bp";
    rreq.var = var;
    // Geometry is loaded once per campaign, off the per-read path.
    const auto geometry = core::GeometryCache::load(tiers, rreq.path, var);
    rreq.geometry = &geometry;
    // Base only: the coarsest stored level (levels - 1).
    rreq.target_level = static_cast<std::uint32_t>(config.levels - 1);
    ReadResult base;
    if (!pipeline.read(rreq, &base).usable()) return 1;
    const double base_io = base.timings.io_seconds;
    rreq.target_level = 0;  // full accuracy
    ReadResult full;
    if (!pipeline.read(rreq, &full).usable()) return 1;
    std::printf("  %-9s base-only io %7.3f ms   full-restore io %7.3f ms (%.1fx)\n",
                name, base_io * 1e3, full.timings.io_seconds * 1e3,
                full.timings.io_seconds / base_io);
  }
  return 0;
}
