// Figure 9: XGC1 end-to-end analytics pipeline under progressive retrieval.
//
// 9a: time breakdown (I/O, decompression, restoration, blob detection) of
//     constructing the next accuracy level at each decimation ratio, vs the
//     "None" baseline that reads the raw full-accuracy data from the PFS.
// 9b: time to restore the *full* accuracy data from the base dataset and all
//     deltas, per decimation ratio — the I/O savings from the fast tier and
//     the delta pre-conditioning make this beat the raw read.

#include <iostream>

#include "bench_common.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench::PipelineOptions opt;
  opt.detect_blobs = true;
  opt.raster_px = static_cast<std::size_t>(cli.get_int("raster", 360));
  opt.error_bound = cli.get_double("eb", 1e-4);
  // --fault-rate p injects read failures (and p/10 bit-flip corruption) on
  // the contended PFS tier; reads retry, fall back to replicas, or degrade.
  opt.fault_rate = cli.get_double("fault-rate", 0.0);
  opt.fault_seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 7));
  opt.threads = bench::threads_flag(cli);
  // --cache-mb=N attaches a shared block cache per case; --sessions=K runs
  // the next-level retrieval as K concurrent ReadSessions (mean per-session
  // cost reported). See bench/concurrent_readers for the dedicated study.
  bench::session_flags(cli, opt);
  // --io-depth=D routes delta fetches through the async engine (D reads in
  // flight, completion-driven decode); --delta-chunks sets the write-side
  // chunking that gives it parallelism. --io-ab runs the acceptance A/B.
  bench::io_flags(cli, opt);
  // --trace-out=trace.json records spans + metrics and exports a Chrome trace.
  bench::observability_flags(cli);

  const auto ds = sim::make_xgc_dataset({});

  if (cli.has("io-ab")) {
    // Acceptance A/B: identical container (delta_chunks >= 8 so the ring has
    // parallelism), full restoration read twice — blocking (depth 1) vs
    // async (depth >= 8). The restored field must be bitwise-identical and
    // the async simulated I/O strictly lower; exit nonzero otherwise.
    const std::uint32_t depth = std::max<std::uint32_t>(8, opt.io_depth);
    const std::uint32_t chunks = std::max<std::uint32_t>(8, opt.delta_chunks);
    auto tiers = bench::make_two_tier(ds.values.size() * sizeof(double));
    canopus::Options popt;
    popt.parallel.threads = opt.threads;
    Pipeline write_pipe(tiers, popt);
    WriteRequest wreq;
    wreq.path = "ab.bp";
    wreq.var = ds.variable;
    wreq.mesh = &ds.mesh;
    wreq.values = &ds.values;
    wreq.config.levels = 4;
    wreq.config.codec = opt.codec;
    wreq.config.error_bound = opt.error_bound;
    wreq.config.delta_chunks = chunks;
    const auto ws = write_pipe.write(wreq);
    if (!ws.ok()) throw Error("refactor failed: " + ws.to_string());
    const auto geometry = core::GeometryCache::load(tiers, "ab.bp", ds.variable);

    ReadRequest rreq;
    rreq.path = "ab.bp";
    rreq.var = ds.variable;
    rreq.geometry = &geometry;
    rreq.target_level = 0;

    auto run_side = [&](std::uint32_t io_depth) {
      canopus::Options side = popt;
      side.io.depth = io_depth;
      side.io.batch = opt.io_batch;
      Pipeline p(tiers, side);
      ReadResult r;
      const auto st = p.read(rreq, &r);
      if (!st.usable()) throw Error("A/B read failed: " + st.to_string());
      return r;
    };
    const auto blocking = run_side(1);
    const auto async = run_side(depth);

    util::Table t({"path", "io(s)", "decompress(s)", "restore(s)"});
    t.add_row({"blocking depth=1", util::Table::num(blocking.timings.io_seconds, 5),
               util::Table::num(blocking.timings.decompress_seconds, 4),
               util::Table::num(blocking.timings.restore_seconds, 4)});
    t.add_row({"async depth=" + std::to_string(depth),
               util::Table::num(async.timings.io_seconds, 5),
               util::Table::num(async.timings.decompress_seconds, 4),
               util::Table::num(async.timings.restore_seconds, 4)});
    t.print(std::cout, "Fig. 9 async I/O A/B (full restoration, " +
                           std::to_string(chunks) + " delta chunks)");

    if (blocking.values != async.values) {
      std::cerr << "FAIL: async restoration is not bitwise-identical to the "
                   "blocking path\n";
      return 1;
    }
    if (!(async.timings.io_seconds < blocking.timings.io_seconds)) {
      std::cerr << "FAIL: async io_seconds (" << async.timings.io_seconds
                << ") not below blocking (" << blocking.timings.io_seconds
                << ")\n";
      return 1;
    }
    std::cout << "\nasync vs blocking simulated I/O: "
              << util::Table::pct(1.0 - async.timings.io_seconds /
                                            blocking.timings.io_seconds)
              << " lower, restored field bitwise-identical\n";
    return 0;
  }
  std::cout << "workload: xgc1 dpot plane, " << ds.values.size()
            << " values (" << ds.values.size() * sizeof(double) / 1024
            << " KiB raw), contended-PFS + tmpfs hierarchy\n\n";

  std::vector<bench::PipelineCase> full;
  const auto cases = bench::run_pipeline(ds, opt, &full);
  bench::print_pipeline_table(
      "Fig. 9a end-to-end analysis time (construct next level + blob detect)",
      cases, true, std::cout);
  std::cout << '\n';
  bench::print_pipeline_table(
      "Fig. 9b restoring full accuracy from base + deltas", full, false,
      std::cout);

  if (opt.fault_rate > 0.0) {
    std::cout << '\n';
    bench::print_fault_summary(
        "fault model (rate " + util::Table::num(opt.fault_rate, 3) +
            ", seed " + std::to_string(opt.fault_seed) +
            "): full-restoration fault counters",
        full, std::cout);
  }

  const double none_total = full.front().total();
  double best = none_total;
  for (const auto& c : full) best = std::min(best, c.total());
  std::cout << "\nfull-accuracy restoration vs raw read: best "
            << util::Table::pct(1.0 - best / none_total)
            << " faster (paper reports up to ~50%)\n";

  std::cout << '\n';
  bench::flush_observability(std::cout);
  return 0;
}
