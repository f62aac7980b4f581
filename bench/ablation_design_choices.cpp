// Ablations over the design choices DESIGN.md section 6 calls out:
//   1. Estimate(.) weighting (Eq. 2): uniform 1/3 vs barycentric vs gradient.
//      A gate: exits nonzero unless stored bytes order gradient < barycentric
//      < uniform.
//   2. Edge-collapse priority: shortest-first vs random vs gradient-weighted.
//   3. Delta codec: zfp vs sz vs fpc vs lzss.
//   4. Placement: fastest-fit hierarchy vs everything-on-PFS.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "compress/codec.hpp"
#include "core/delta.hpp"
#include "mesh/cascade.hpp"
#include "util/stats.hpp"

using namespace canopus;

namespace {

/// The write report of one config variation.
core::RefactorReport write_report(const sim::Dataset& ds,
                                  const core::RefactorConfig& cfg) {
  auto tiers = bench::make_two_tier(8 << 20);
  return core::refactor_and_write(tiers, "a.bp", ds.variable, ds.mesh,
                                  ds.values, cfg);
}

/// Total compressed size of base + deltas for a config variation.
std::size_t stored_size(const sim::Dataset& ds, const core::RefactorConfig& cfg) {
  return write_report(ds, cfg).total_stored_bytes();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double eb = cli.get_double("eb", 1e-4);
  const auto ds = sim::make_xgc_dataset({});
  const std::size_t raw = ds.values.size() * sizeof(double);
  std::cout << "workload: xgc1 dpot plane, " << ds.values.size()
            << " values, 3 levels, abs error bound " << eb << "\n\n";

  core::RefactorConfig base_cfg;
  base_cfg.levels = 3;
  base_cfg.codec = "zfp";
  base_cfg.error_bound = eb;
  bool failed = false;

  // ---- 1. Estimate(.) weighting. -----------------------------------------
  {
    // Geometry bytes are the same in every mode: no mode stores weights.
    util::Table t({"estimate", "stored-bytes", "normalized", "delta-stddev",
                   "geometry-bytes"});
    std::vector<std::size_t> bytes;
    for (auto mode : {core::EstimateMode::kUniformThirds,
                      core::EstimateMode::kBarycentric,
                      core::EstimateMode::kGradient}) {
      auto cfg = base_cfg;
      cfg.estimate = mode;
      const auto report = write_report(ds, cfg);
      const auto stored = report.total_stored_bytes();
      bytes.push_back(stored);
      // Delta smoothness for this mode, measured on the first delta.
      mesh::CascadeOptions copt;
      copt.levels = 2;
      const auto cascade = mesh::build_cascade(ds.mesh, ds.values, copt);
      const auto mapping = core::build_mapping(cascade.levels[0].mesh,
                                               cascade.levels[1].mesh);
      const auto delta = core::compute_delta(
          cascade.levels[1].mesh, cascade.levels[1].values,
          cascade.levels[0].mesh, cascade.levels[0].values, mapping, mode);
      util::RunningStats rs;
      rs.add(delta);
      t.add_row({core::to_string(mode), std::to_string(stored),
                 util::Table::num(static_cast<double>(stored) / raw, 4),
                 util::Table::num(rs.stddev(), 5),
                 std::to_string(report.geometry_bytes)});
    }
    t.print(std::cout, "Ablation 1: Estimate(.) weighting");
    std::cout << '\n';
    if (!(bytes[2] < bytes[1] && bytes[1] < bytes[0])) {
      std::cout << "Ablation 1 FAILED: stored bytes must order gradient < "
                   "barycentric < uniform\n";
      failed = true;
    }
  }

  // ---- 2. Edge-collapse priority. ----------------------------------------
  {
    util::Table t({"priority", "stored-bytes", "normalized"});
    const std::pair<mesh::EdgePriority, const char*> prios[] = {
        {mesh::EdgePriority::kShortestFirst, "shortest-first (paper)"},
        {mesh::EdgePriority::kRandom, "random"},
        {mesh::EdgePriority::kGradientWeighted, "gradient-weighted"}};
    for (const auto& [prio, name] : prios) {
      auto cfg = base_cfg;
      cfg.decimate.priority = prio;
      const auto stored = stored_size(ds, cfg);
      t.add_row({name, std::to_string(stored),
                 util::Table::num(static_cast<double>(stored) / raw, 4)});
    }
    t.print(std::cout, "Ablation 2: edge-collapse priority");
    std::cout << '\n';
  }

  // ---- 3. Delta codec. ----------------------------------------------------
  {
    util::Table t({"codec", "lossless", "stored-bytes", "normalized"});
    for (const char* codec : {"zfp", "sz", "fpc", "lzss"}) {
      auto cfg = base_cfg;
      cfg.codec = codec;
      const auto stored = stored_size(ds, cfg);
      t.add_row({codec, compress::make_codec(codec)->lossless() ? "yes" : "no",
                 std::to_string(stored),
                 util::Table::num(static_cast<double>(stored) / raw, 4)});
    }
    t.print(std::cout, "Ablation 3: codec for base + deltas");
    std::cout << '\n';
  }

  // ---- 4. Placement policy. -----------------------------------------------
  {
    util::Table t({"placement", "base-read-io(s)", "full-restore-io(s)"});
    for (const bool tiered : {true, false}) {
      storage::StorageHierarchy tiers =
          tiered ? bench::make_two_tier(8 << 20)
                 : storage::StorageHierarchy(
                       {bench::contended_lustre_spec(8ull << 30)});
      auto cfg = base_cfg;
      cfg.tiered_placement = tiered;
      core::refactor_and_write(tiers, "p.bp", ds.variable, ds.mesh, ds.values,
                               cfg);
      // Campaign-lifetime geometry, off the measured path: the columns
      // price the base and the deltas only.
      const auto geometry =
          core::GeometryCache::load(tiers, "p.bp", ds.variable);
      core::ProgressiveReader quick(tiers, "p.bp", ds.variable, &geometry);
      const double base_io = quick.cumulative().io_seconds;
      core::ProgressiveReader full(tiers, "p.bp", ds.variable, &geometry);
      full.refine_to(0);
      t.add_row({tiered ? "tiered (paper)" : "pfs-only",
                 util::Table::num(base_io, 4),
                 util::Table::num(full.cumulative().io_seconds, 4)});
    }
    t.print(std::cout, "Ablation 4: placement policy (simulated I/O)");
    std::cout << '\n';
  }

  // ---- 5. Delta chunking granularity (focused-retrieval tradeoff). --------
  {
    util::Table t({"delta-chunks", "stored-bytes", "roi-step-bytes",
                   "roi-step-io(s)", "full-step-io(s)"});
    // ROI around one blob-sized neighborhood on the outer edge.
    const mesh::Aabb roi{{0.55, -0.25}, {0.95, 0.15}};
    for (std::uint32_t chunks : {1u, 8u, 64u, 256u}) {
      auto tiers = bench::make_two_tier(8 << 20);
      auto cfg = base_cfg;
      cfg.levels = 2;
      cfg.delta_chunks = chunks;
      const auto report = core::refactor_and_write(tiers, "c.bp", ds.variable,
                                                   ds.mesh, ds.values, cfg);
      const auto geometry =
          core::GeometryCache::load(tiers, "c.bp", ds.variable);
      core::ProgressiveReader focused(tiers, "c.bp", ds.variable, &geometry);
      const auto roi_step = focused.refine_region(roi);
      core::ProgressiveReader full(tiers, "c.bp", ds.variable, &geometry);
      const auto full_step = full.refine();
      t.add_row({std::to_string(chunks),
                 std::to_string(report.total_stored_bytes()),
                 std::to_string(roi_step.bytes_read),
                 util::Table::num(roi_step.io_seconds, 4),
                 util::Table::num(full_step.io_seconds, 4)});
    }
    t.print(std::cout,
            "Ablation 5: delta chunk granularity (ROI selectivity vs per-chunk "
            "overhead)");
  }
  return failed ? 1 : 0;
}
