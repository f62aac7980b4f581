// Figure 6: storage-to-compute trend and write-side cost of refactoring.
//
// 6a: the storage-to-compute trend (bytes/s per MFlops) for U.S. leadership
//     systems, 2009-2024, from the CODAR overview the paper cites [31].
// 6b: time-fraction breakdown of writing XGC1's dpot variable (20,694
//     double-precision mesh values, decimation ratio 2) under high / medium /
//     low storage-to-compute scenarios: 32 / 128 / 512 cores against one
//     storage target. Decimation and delta+compression are embarrassingly
//     parallel across cores (Section III-C1), so their measured single-core
//     time divides by the core count; the single storage target's I/O time is
//     shared by the whole allocation.

#include <iostream>

#include "bench_common.hpp"
#include "storage/aggregation.hpp"
#include "util/timer.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);

  // ---- Fig. 6a: storage-to-compute trend (static series from [31]). ------
  {
    util::Table t({"year", "system", "bytes-per-sec-per-MFlops"});
    // Jaguar -> Titan -> Summit -> Frontier-era trajectory: compute grows
    // much faster than storage bandwidth.
    t.add_row({"2009", "jaguar", "108"});
    t.add_row({"2013", "titan", "74"});
    t.add_row({"2017", "summit-dev", "25"});
    t.add_row({"2021", "exascale-1", "8"});
    t.add_row({"2024", "exascale-2", "3"});
    t.print(std::cout, "Fig. 6a storage-to-compute trend for large HPC systems");
    std::cout << '\n';
  }

  // ---- Fig. 6b: write-time fractions under three scenarios. --------------
  sim::XgcOptions opt;  // defaults produce the paper's ~20.7k-value plane
  opt.rings = static_cast<std::size_t>(static_cast<double>(opt.rings) *
                                       std::sqrt(scale));
  opt.sectors = static_cast<std::size_t>(static_cast<double>(opt.sectors) *
                                         std::sqrt(scale));
  const auto ds = sim::make_xgc_dataset(opt);
  std::cout << "workload: xgc1 dpot, " << ds.values.size()
            << " double-precision mesh values, decimation ratio 2\n\n";

  struct Scenario {
    const char* name;
    std::size_t cores;
  };
  // One storage target in all cases; more cores = cheaper compute relative
  // to storage = lower storage-to-compute ratio.
  const Scenario scenarios[] = {{"high", 32}, {"medium", 128}, {"low", 512}};

  // Measure single-core refactoring once; the scenarios rescale it.
  core::RefactorConfig config;
  config.levels = 2;  // one decimation pass: ratio 2
  config.codec = "zfp";
  config.error_bound = 1e-4;
  // A writing job owns its stripe allocation, so the write path sees the
  // nominal Lustre envelope (the contended spec models shared-read analytics).
  storage::StorageHierarchy tiers(
      {storage::tmpfs_spec(1 << 20), storage::lustre_spec(8ull << 30)});
  const auto report = core::refactor_and_write(tiers, "fig6.bp", "dpot",
                                               ds.mesh, ds.values, config);
  std::cout << "container: base+deltas " << report.total_stored_bytes()
            << " + geometry " << report.geometry_bytes << " = "
            << report.total_stored_bytes() + report.geometry_bytes
            << " bytes\n\n";
  const double decim_1core = report.phases.get("decimation");
  const double delta_1core = report.phases.get("delta+compress");
  const double io_shared = report.phases.get("io");

  util::Table t({"storage-to-compute", "cores", "decimation", "delta+compress",
                 "io", "decimation-frac", "delta-frac", "io-frac"});
  for (const auto& s : scenarios) {
    const double cores = static_cast<double>(s.cores);
    const double decim = decim_1core / cores;
    const double delta = delta_1core / cores;
    const double total = decim + delta + io_shared;
    t.add_row({s.name, std::to_string(s.cores), util::Table::num(decim, 5),
               util::Table::num(delta, 5), util::Table::num(io_shared, 5),
               util::Table::pct(decim / total), util::Table::pct(delta / total),
               util::Table::pct(io_shared / total)});
  }
  t.print(std::cout, "Fig. 6b write-time breakdown (seconds and fractions)");
  std::cout << "\nObservation: as compute gets cheaper (more cores per storage\n"
               "target), refactoring's relative cost shrinks and I/O dominates\n"
               "the write path -- the paper's Section IV-C conclusion.\n\n";

  // ---- Aggregator tuning (the MPI_AGGREGATE transport of Fig. 2). --------
  {
    storage::AggregationModel model;
    model.writers = 512;
    model.storage_targets = 8;
    const auto lustre = storage::lustre_spec(8ull << 30);
    const std::size_t bytes = ds.values.size() * sizeof(double) * 64;  // 64 steps
    util::Table agg({"aggregators", "write-time(s)"});
    for (std::size_t a = 1; a <= model.writers; a *= 4) {
      model.aggregators = a;
      agg.add_row({std::to_string(a),
                   util::Table::num(
                       storage::aggregate_write_seconds(model, lustre, bytes), 4)});
    }
    agg.print(std::cout,
              "MPI_AGGREGATE tuning: 512 writers, 8 storage targets, 64-step burst");
    std::cout << "best aggregator count: "
              << storage::best_aggregator_count(model, lustre, bytes) << "\n";
  }
  return 0;
}
