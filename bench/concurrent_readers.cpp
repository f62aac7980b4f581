// Concurrent read sessions sharing one block cache.
//
// The scenario Section V's campaign readers motivate: K analytics clients
// open the same refactored variable and each restores it to full accuracy.
// Uncached, every client pays the full contended-PFS fetch and chunk decode
// itself; with the shared BlockCache the first reader (or a warm-up pass)
// faults each blob in once and everyone else hits memory — single-flight
// loading guarantees one tier fetch and one decode per block regardless of
// how many sessions race for it.
//
// Prints the per-session cost breakdown and the aggregate read throughput of
// the cache-off vs warm-cache configurations, verifies the restored fields
// are bitwise-identical everywhere (equal accuracy), and exits non-zero if
// the warm-cache aggregate throughput is not at least 2x the uncached one.
//
// Cluster mode (--nodes=N, N >= 2): instead of one process-local hierarchy,
// the refactored products are sharded across a simulated N-node fabric
// (src/fabric) — every node gets identical hardware (a fast tier sized to
// ~1.35x its shard, a contended PFS below it, a slice of the cache budget)
// and K sessions are spread round-robin across the nodes, resolving
// non-local chunks through the fabric's remote-read envelope. The baseline
// is ONE such node serving everything (its fast tier overflows to the
// contended PFS). Exits non-zero unless the cluster run performed remote
// reads, restored bitwise-identical fields, and met or beat the single-node
// aggregate throughput — the elastic scale-out claim.
//
// Flags: --sessions=8 --cache-mb=64 --threads=0 --eb=1e-4 [--nodes=N]
//        [--trace-out=f]

#include <cstring>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "fabric/fabric.hpp"

using namespace canopus;

namespace {

struct ConfigResult {
  std::string label;
  double io = 0.0;          // mean per-session simulated tier I/O seconds
  double decompress = 0.0;  // mean per-session wall
  double restore = 0.0;     // mean per-session wall
  double elapsed = 0.0;     // max per-session total: the concurrent makespan
  double wall = 0.0;        // real wall-clock of the measured run
  double max_abs_error = 0.0;
  std::vector<mesh::Field> fields;  // one restored field per session
  cache::BlockCache::Stats cache_stats;
  bool cached = false;
};

double max_abs_error(const mesh::Field& got, const mesh::Field& want) {
  double e = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    e = std::max(e, std::abs(got[i] - want[i]));
  }
  return e;
}

ConfigResult run_config(const sim::Dataset& ds, const bench::PipelineOptions& opt,
                        bool cached) {
  const std::size_t raw_bytes = ds.values.size() * sizeof(double);
  auto tiers = bench::make_two_tier(raw_bytes);

  canopus::Options popt;
  popt.parallel.threads = opt.threads;
  popt.io.depth = opt.io_depth;
  popt.io.batch = opt.io_batch;
  if (cached) {
    cache::CacheConfig cc;
    cc.budget_bytes = opt.cache_mb << 20;
    popt.cache = cc;
  }
  Pipeline pipeline(tiers, popt);

  WriteRequest wreq;
  wreq.path = "run.bp";
  wreq.var = ds.variable;
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config.levels = 4;  // decimation ratio 8
  wreq.config.delta_chunks = opt.delta_chunks;
  wreq.config.codec = opt.codec;
  wreq.config.error_bound = opt.error_bound;
  const auto ws = pipeline.write(wreq);
  if (!ws.ok()) throw Error("refactor failed: " + ws.to_string());
  const auto geometry = core::GeometryCache::load(tiers, "run.bp", ds.variable);

  ReadRequest rreq;
  rreq.path = "run.bp";
  rreq.var = ds.variable;
  rreq.geometry = &geometry;

  if (cached) {
    // Warm pass: one unmeasured session faults every blob and decoded chunk
    // into the cache, modeling steady-state campaign analytics where the
    // products of the current timestep are already resident.
    std::unique_ptr<ReadSession> warm;
    auto st = pipeline.open_session(rreq, &warm);
    if (st.ok()) st = warm->refine_to(0);
    if (!st.ok()) throw Error("warm-up failed: " + st.to_string());
  }

  const std::size_t n = opt.sessions;
  std::vector<std::unique_ptr<ReadSession>> sessions(n);
  std::vector<Status> statuses(n);
  util::WallTimer wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      clients.emplace_back([&, s] {
        auto st = pipeline.open_session(rreq, &sessions[s]);
        if (st.ok()) st = sessions[s]->refine_to(0);
        statuses[s] = st;
      });
    }
    for (auto& client : clients) client.join();
  }

  ConfigResult r;
  r.label = cached ? "cache " + std::to_string(opt.cache_mb) + "MiB (warm)"
                   : "cache off";
  r.cached = cached;
  r.wall = wall.seconds();
  for (std::size_t s = 0; s < n; ++s) {
    if (!statuses[s].ok()) {
      throw Error("session failed: " + statuses[s].to_string());
    }
    const auto& t = sessions[s]->timings();
    const double total =
        t.io_seconds + t.decompress_seconds + t.restore_seconds;
    r.io += t.io_seconds;
    r.decompress += t.decompress_seconds;
    r.restore += t.restore_seconds;
    r.elapsed = std::max(r.elapsed, total);
    r.max_abs_error =
        std::max(r.max_abs_error, max_abs_error(sessions[s]->values(), ds.values));
    r.fields.push_back(sessions[s]->values());
  }
  r.io /= static_cast<double>(n);
  r.decompress /= static_cast<double>(n);
  r.restore /= static_cast<double>(n);
  if (const auto* cache = pipeline.block_cache()) {
    r.cache_stats = cache->stats();
  }
  return r;
}

// ----------------------------------------------------------------------------
// Cluster mode (--nodes=N).

struct ClusterResult {
  std::string label;
  double io = 0.0;          // mean per-session simulated tier I/O seconds
  double decompress = 0.0;  // mean per-session wall
  double restore = 0.0;     // mean per-session wall
  double elapsed = 0.0;     // max per-session total: the concurrent makespan
  std::vector<mesh::Field> fields;
  fabric::Fabric::Stats stats;
  fabric::ImportReport report;
};

/// One fabric run: `run_nodes` identical nodes (fast tier of
/// `fast_capacity` bytes over a contended PFS, `cache_mb_per_node` MiB of
/// cache each), the staged container sharded across them, and
/// `opt.sessions` full-accuracy sessions spread round-robin.
ClusterResult run_fabric_config(const sim::Dataset& ds,
                                const bench::PipelineOptions& opt,
                                storage::StorageHierarchy& staging,
                                std::size_t run_nodes,
                                std::size_t fast_capacity,
                                std::size_t cache_mb_per_node) {
  fabric::FabricOptions fo;
  fo.nodes = run_nodes;
  fabric::Fabric cluster(
      fo, {storage::tmpfs_spec(fast_capacity),
           bench::contended_lustre_spec(8ull << 30)});

  ClusterResult r;
  r.label = std::to_string(run_nodes) + (run_nodes == 1 ? " node" : " nodes");
  r.report = cluster.import_container(staging, "run.bp");

  cache::CacheConfig cc;
  cc.budget_bytes = cache_mb_per_node << 20;
  cluster.attach_node_caches(cc);

  // Campaign-lifetime geometry, preloaded off the measured path (every node
  // holds a full copy of the mesh/mapping blocks).
  const auto geometry =
      core::GeometryCache::load(cluster.node(0), "run.bp", ds.variable);

  canopus::Options popt;
  popt.parallel.threads = opt.threads;
  popt.io.depth = opt.io_depth;
  popt.io.batch = opt.io_batch;
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  pipelines.reserve(run_nodes);
  for (std::size_t i = 0; i < run_nodes; ++i) {
    pipelines.push_back(std::make_unique<Pipeline>(cluster.node(i), popt));
  }

  ReadRequest rreq;
  rreq.path = "run.bp";
  rreq.var = ds.variable;
  rreq.geometry = &geometry;

  const std::size_t n = opt.sessions;
  std::vector<std::unique_ptr<ReadSession>> sessions(n);
  std::vector<Status> statuses(n);
  {
    std::vector<std::thread> clients;
    clients.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      clients.emplace_back([&, s] {
        auto st = pipelines[s % run_nodes]->open_session(rreq, &sessions[s]);
        if (st.ok()) st = sessions[s]->refine_to(0);
        statuses[s] = st;
      });
    }
    for (auto& client : clients) client.join();
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (!statuses[s].usable()) {
      throw Error("cluster session failed: " + statuses[s].to_string());
    }
    const auto& t = sessions[s]->timings();
    const double total =
        t.io_seconds + t.decompress_seconds + t.restore_seconds;
    r.io += t.io_seconds;
    r.decompress += t.decompress_seconds;
    r.restore += t.restore_seconds;
    r.elapsed = std::max(r.elapsed, total);
    r.fields.push_back(sessions[s]->values());
  }
  r.io /= static_cast<double>(n);
  r.decompress /= static_cast<double>(n);
  r.restore /= static_cast<double>(n);
  r.stats = cluster.stats();
  return r;
}

int run_cluster_bench(const sim::Dataset& ds, const bench::PipelineOptions& opt,
                      std::size_t nodes) {
  const std::size_t raw_bytes = ds.values.size() * sizeof(double);
  std::cout << "cluster mode: " << nodes << " simulated nodes, "
            << opt.sessions << " sessions round-robin\n\n";

  // Refactor once into an unconstrained staging hierarchy; both fabric runs
  // shard the same container. More delta chunks than nodes so the Morton
  // ranges split evenly.
  storage::StorageHierarchy staging({storage::tmpfs_spec(1ull << 30)});
  {
    canopus::Options popt;
    popt.parallel.threads = opt.threads;
    Pipeline writer(staging, popt);
    WriteRequest wreq;
    wreq.path = "run.bp";
    wreq.var = ds.variable;
    wreq.mesh = &ds.mesh;
    wreq.values = &ds.values;
    wreq.config.levels = 4;
    wreq.config.delta_chunks = 4 * nodes;
    wreq.config.codec = opt.codec;
    wreq.config.error_bound = opt.error_bound;
    const auto ws = writer.write(wreq);
    if (!ws.ok()) throw Error("refactor failed: " + ws.to_string());
  }

  // Size each node's fast tier to ~1.35x its shard of the refactored
  // payload, with a 64 KiB floor: an N-node fabric serves every primary
  // from aggregate fast memory, while the 1-node baseline (identical
  // hardware) overflows what its one fast tier cannot hold to the contended
  // PFS. The floor decides small payloads: the default dataset's 73 KiB
  // payload against 64 KiB leaves the baseline ~88% of it on the fast tier.
  std::size_t sharded_bytes = 0;
  {
    adios::BpReader scan(staging, "run.bp");
    for (const auto& name : scan.variables()) {
      for (const auto& b : scan.inq_var(name).blocks) {
        if (b.kind == adios::BlockKind::kBase ||
            b.kind == adios::BlockKind::kDelta ||
            b.kind == adios::BlockKind::kData) {
          sharded_bytes += static_cast<std::size_t>(b.stored_bytes);
        }
      }
    }
  }
  const auto fast_capacity = std::max<std::size_t>(
      static_cast<std::size_t>(1.35 * static_cast<double>(sharded_bytes) /
                               static_cast<double>(nodes)),
      64ull << 10);
  const std::size_t cache_mb_per_node =
      std::max<std::size_t>(1, opt.cache_mb / nodes);
  std::cout << "refactored payload " << sharded_bytes / 1024
            << " KiB sharded; per-node fast tier " << fast_capacity / 1024
            << " KiB, per-node cache " << cache_mb_per_node << " MiB\n\n";

  const auto single =
      run_fabric_config(ds, opt, staging, 1, fast_capacity, cache_mb_per_node);
  const auto cluster = run_fabric_config(ds, opt, staging, nodes,
                                         fast_capacity, cache_mb_per_node);

  const double s = static_cast<double>(opt.sessions);
  auto throughput = [&](const ClusterResult& r) {
    return s * static_cast<double>(raw_bytes) / r.elapsed / 1e6;  // MB/s
  };

  util::Table t({"config", "io(s)", "decompress(s)", "restore(s)",
                 "makespan(s)", "agg MB/s", "remote", "local", "fallback"});
  for (const auto* r : {&single, &cluster}) {
    t.add_row({r->label, util::Table::num(r->io, 4),
               util::Table::num(r->decompress, 4),
               util::Table::num(r->restore, 4),
               util::Table::num(r->elapsed, 4),
               util::Table::num(throughput(*r), 1),
               std::to_string(r->stats.remote_reads),
               std::to_string(r->stats.local_hits),
               std::to_string(r->stats.replica_fallbacks)});
  }
  t.print(std::cout, "sharded fabric vs single node, per-session means (" +
                         std::to_string(opt.sessions) + " sessions)");

  bool identical = true;
  for (const auto* r : {&single, &cluster}) {
    for (const auto& f : r->fields) {
      identical = identical && f.size() == single.fields.front().size() &&
                  std::memcmp(f.data(), single.fields.front().data(),
                              f.size() * sizeof(double)) == 0;
    }
  }
  const double ratio = throughput(cluster) / throughput(single);
  std::cout << "\nfields bitwise-identical across sessions and configs: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "cluster remote reads: " << cluster.stats.remote_reads
            << ", failed: " << cluster.stats.failed_remote_reads << "\n";
  std::cout << "aggregate throughput (" << nodes << " nodes vs 1): "
            << util::Table::num(ratio, 3) << "x\n";

  std::cout << '\n';
  bench::flush_observability(std::cout);

  if (!identical || cluster.stats.remote_reads == 0 || ratio < 1.0) {
    std::cout << "\nFAIL: expected remote reads, bitwise-identical fields, "
                 "and cluster throughput >= single-node\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench::PipelineOptions opt;
  opt.error_bound = cli.get_double("eb", 1e-4);
  opt.threads = bench::threads_flag(cli);
  opt.cache_mb = static_cast<std::size_t>(cli.get_int("cache-mb", 64));
  opt.sessions = static_cast<std::size_t>(
      std::max<std::int64_t>(2, cli.get_int("sessions", 8)));
  if (opt.cache_mb == 0) opt.cache_mb = 64;  // the study needs a cache to compare
  // --io-depth/--io-batch route session fetches through the async engine;
  // --delta-chunks gives it (and the parallel decode) its parallelism.
  bench::io_flags(cli, opt);
  // Observability is on by default here so the cache.* counters land in the
  // metric summary; --trace-out additionally writes the Chrome trace.
  if (cli.has("trace-out")) {
    bench::observability_flags(cli);
  } else {
    obs::ObservabilityOptions oopt;
    oopt.enabled = true;
    obs::install(oopt);
  }

  const auto ds = sim::make_xgc_dataset({});
  const std::size_t raw_bytes = ds.values.size() * sizeof(double);
  std::cout << "workload: xgc1 dpot plane, " << ds.values.size() << " values ("
            << raw_bytes / 1024 << " KiB raw), " << opt.sessions
            << " concurrent full-accuracy sessions per config\n\n";

  const auto nodes = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("nodes", 1)));
  if (nodes >= 2) return run_cluster_bench(ds, opt, nodes);

  const auto off = run_config(ds, opt, false);
  const auto on = run_config(ds, opt, true);

  // Aggregate read throughput: every session delivers the full-accuracy
  // field, and the concurrent makespan is the slowest session's total
  // (simulated I/O + decode + restore).
  const double s = static_cast<double>(opt.sessions);
  auto throughput = [&](const ConfigResult& r) {
    return s * static_cast<double>(raw_bytes) / r.elapsed / 1e6;  // MB/s
  };

  util::Table t({"config", "io(s)", "decompress(s)", "restore(s)",
                 "makespan(s)", "agg MB/s"});
  for (const auto* r : {&off, &on}) {
    t.add_row({r->label, util::Table::num(r->io, 4),
               util::Table::num(r->decompress, 4),
               util::Table::num(r->restore, 4),
               util::Table::num(r->elapsed, 4),
               util::Table::num(throughput(*r), 1)});
  }
  t.print(std::cout,
          "concurrent full-accuracy retrieval, per-session means (" +
              std::to_string(opt.sessions) + " sessions)");

  // Equal accuracy: every session of every config must restore the exact
  // same field — the cache returns the bytes the tiers would have.
  bool identical = true;
  for (const auto* r : {&off, &on}) {
    for (const auto& f : r->fields) {
      identical = identical && f.size() == off.fields.front().size() &&
                  std::memcmp(f.data(), off.fields.front().data(),
                              f.size() * sizeof(double)) == 0;
    }
  }
  std::cout << "\nfields bitwise-identical across sessions and configs: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "max |error| vs original: cache-off "
            << util::Table::num(off.max_abs_error, 6) << ", warm-cache "
            << util::Table::num(on.max_abs_error, 6) << " (bound "
            << util::Table::num(opt.error_bound, 6) << ")\n";

  const auto& cs = on.cache_stats;
  std::cout << "warm-cache counters: hits " << cs.hits << ", misses "
            << cs.misses << ", single-flight waits " << cs.single_flight_waits
            << ", evictions " << cs.evictions << "\n";

  const double speedup = throughput(on) / throughput(off);
  std::cout << "aggregate throughput speedup (warm cache vs off): "
            << util::Table::num(speedup, 1) << "x\n";

  std::cout << '\n';
  bench::flush_observability(std::cout);

  if (!identical || speedup < 2.0) {
    std::cout << "\nFAIL: expected bitwise-identical fields and >=2x speedup\n";
    return 1;
  }
  return 0;
}
