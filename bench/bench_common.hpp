#pragma once
// Shared scenario plumbing for the figure-reproduction benches.
//
// Storage envelope: the paper emulates a two-tier hierarchy (DRAM tmpfs +
// Lustre) on Titan during a period when the PFS was the bottleneck of the
// whole campaign (Section I). We therefore model the Lustre tier as a
// *contended* per-reader stream — high latency, low effective bandwidth —
// which is exactly the regime Canopus targets; the tmpfs tier keeps its
// DRAM-class envelope. Absolute seconds differ from the paper's testbed, but
// the relative shape (I/O-dominated pipelines, fast-tier wins) is preserved.
// See EXPERIMENTS.md for the calibration notes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "adios/bp.hpp"
#include "analytics/blob.hpp"
#include "cache/block_cache.hpp"
#include "analytics/raster.hpp"
#include "core/canopus.hpp"
#include "obs/observability.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace canopus::bench {

/// Contended production-PFS envelope (per-reader effective stream).
inline storage::TierSpec contended_lustre_spec(std::size_t capacity) {
  auto spec = storage::lustre_spec(capacity);
  spec.read_bandwidth = 2e6;    // 2 MB/s effective under contention
  spec.write_bandwidth = 4e6;
  spec.read_latency = 2e-3;
  spec.write_latency = 2e-3;
  return spec;
}

/// Two-tier hierarchy sized so that refactored bases fit the fast tier and
/// everything else (deltas, raw baselines) spills to the contended PFS.
inline storage::StorageHierarchy make_two_tier(std::size_t fast_capacity) {
  return storage::StorageHierarchy(
      {storage::tmpfs_spec(fast_capacity), contended_lustre_spec(8ull << 30)});
}

/// The paper's three blob-detection configs <minThreshold, maxThreshold,
/// minArea> (Section IV-D).
inline analytics::BlobParams blob_config(int which) {
  analytics::BlobParams p;
  p.threshold_step = 10;
  switch (which) {
    case 1: p.min_threshold = 10;  p.max_threshold = 200; p.min_area = 100; break;
    case 2: p.min_threshold = 150; p.max_threshold = 200; p.min_area = 100; break;
    case 3: p.min_threshold = 10;  p.max_threshold = 200; p.min_area = 200; break;
    default: throw Error("blob config must be 1, 2 or 3");
  }
  return p;
}

/// Result of one end-to-end analytics pipeline case (Figs. 9-11).
struct PipelineCase {
  std::string label;        // "None", "2", "4", ...
  double io = 0.0;          // simulated tier I/O seconds
  double decompress = 0.0;  // wall
  double restore = 0.0;     // wall
  double analysis = 0.0;    // wall (blob detection; 0 when not run)
  std::size_t retries = 0;          // faulted reads that were retried
  std::size_t corruptions = 0;      // CRC failures among those
  std::size_t replica_reads = 0;    // reads served by a replica copy
  double total() const { return io + decompress + restore + analysis; }
};

/// Runs the Figs. 9-11 protocol for one dataset.
///
/// "None": read the raw full-accuracy variable straight from the contended
/// PFS and (optionally) run blob detection — no decompression, no restore.
/// Ratio r: refactor with base at decimation ratio r (levels = log2(r) + 1),
/// retrieve the compressed base from the fast tier plus the first delta,
/// restore the next level, and analyze it — the paper's per-case protocol
/// ("each measures the time spent constructing the next level of accuracy").
///
/// `full_restoration` receives the Fig. 9b/10b/11b series: the time to
/// restore the *full* accuracy L0 from the base and every delta at each
/// ratio (the "None" entry is the raw read).
struct PipelineOptions {
  std::vector<int> ratios{2, 4, 8, 16, 32};
  bool detect_blobs = false;
  std::size_t raster_px = 360;
  int blob_config = 1;
  std::string codec = "zfp";
  double error_bound = 1e-4;
  // Fault injection on the slow tier (--fault-rate): probability of an
  // injected read failure; a tenth of it additionally bit-flips payloads.
  // Zero disables injection entirely (byte-identical to the fault-free path).
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 7;
  // Worker count for the refactor/restore pipelines (--threads): 0 = the
  // process-global pool sized to hardware concurrency. Results are
  // bitwise-identical for any value; only wall-clock changes.
  std::size_t threads = 0;
  // Shared block cache budget in MiB (--cache-mb): 0 keeps the uncached
  // per-reader behavior; any positive value attaches a cache::BlockCache to
  // each per-case hierarchy, so repeat reads of the same tier blobs (and
  // their decoded chunk arrays) are served from memory with single-flight
  // loading. Results stay bitwise-identical; only the cost moves.
  std::size_t cache_mb = 0;
  // Concurrent read sessions for the next-level case (--sessions): N > 1
  // opens N Pipeline::open_session() clients that refine in parallel on
  // their own threads; the reported row is the mean per-session cost (and
  // the counter columns the totals). 1 keeps the single-reader protocol.
  std::size_t sessions = 1;
  // I/O overlap depth (--io-depth): depth > 1 charges each level's
  // delta-chunk reads their overlap makespan on `io_depth` lanes instead of
  // the serial sum. Reads and results stay bitwise-identical to the
  // blocking path; only the io(s) column moves. Needs delta_chunks > 1 to
  // have anything to overlap.
  std::uint32_t io_depth = 1;
  // Independently decodable chunks per delta (--delta-chunks): the write-side
  // knob that gives the overlap (and the parallel decode) its parallelism.
  std::uint32_t delta_chunks = 1;
};

/// Shared --threads flag (see PipelineOptions::threads).
inline std::size_t threads_flag(const util::Cli& cli) {
  return static_cast<std::size_t>(cli.get_int("threads", 0));
}

/// Shared --cache-mb / --sessions flags (see PipelineOptions::cache_mb and
/// PipelineOptions::sessions).
inline void session_flags(const util::Cli& cli, PipelineOptions& opt) {
  opt.cache_mb = static_cast<std::size_t>(cli.get_int("cache-mb", 0));
  opt.sessions = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("sessions", 1)));
}

/// Shared --io-depth / --delta-chunks flags (see PipelineOptions::io_depth,
/// delta_chunks). Chunking defaults to 1 at every depth, so runs at two
/// depths read the same containers; overlap needs chunks to overlap, so
/// pass --delta-chunks=8 with --io-depth > 1.
inline void io_flags(const util::Cli& cli, PipelineOptions& opt) {
  opt.io_depth = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("io-depth", 1)));
  opt.delta_chunks = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("delta-chunks", 1)));
}

/// Shared --trace-out flag: `--trace-out=trace.json` enables the
/// observability layer (metrics + tracing, src/obs) with that Chrome-trace
/// sink. Call once at startup, before any pipeline work.
inline void observability_flags(const util::Cli& cli) {
  if (!cli.has("trace-out")) return;
  obs::ObservabilityOptions options;
  options.enabled = true;
  options.trace_path = cli.get("trace-out", "trace.json");
  obs::install(options);
}

/// End-of-run companion of observability_flags(): prints the span/metric
/// summary tables and writes the Chrome trace. No-op when disabled.
inline void flush_observability(std::ostream& os) {
  if (!obs::enabled()) return;
  obs::write_summary(os);
  const auto path = obs::flush();
  if (!path.empty()) os << "chrome trace written to " << path << "\n";
}

/// Wires a seeded FaultInjector into the slow tier of `tiers` per the
/// options; no-op when fault_rate is zero. `stream` decorrelates the decision
/// sequences of the independent per-case hierarchies — with one shared seed
/// every case would replay the same fault prefix.
inline void apply_fault_model(storage::StorageHierarchy& tiers,
                              const PipelineOptions& opt,
                              std::uint64_t stream = 0) {
  if (opt.fault_rate <= 0.0) return;
  auto injector = std::make_shared<storage::FaultInjector>(
      opt.fault_seed + stream * 0x9e3779b97f4a7c15ull);
  storage::FaultProfile profile;
  profile.read_error = opt.fault_rate;
  profile.corrupt = opt.fault_rate * 0.1;
  injector->set_profile(tiers.tier_count() - 1, profile);
  tiers.attach_fault_injector(std::move(injector));
  storage::RetryPolicy retry;
  // Size the retry budget to the configured rate so even extreme --fault-rate
  // values leave ~1e-6 odds of exhausting a read (min 6, capped at 40).
  const double p = std::min(profile.read_error + profile.corrupt, 0.99);
  retry.max_attempts = static_cast<std::uint32_t>(std::clamp(
      std::ceil(std::log(1e-6) / std::log(p)), 6.0, 40.0));
  tiers.set_retry_policy(retry);
}

inline std::vector<PipelineCase> run_pipeline(
    const sim::Dataset& ds, const PipelineOptions& opt,
    std::vector<PipelineCase>* full_restoration = nullptr) {
  const std::size_t raw_bytes = ds.values.size() * sizeof(double);
  const auto bounds = ds.mesh.bounds();
  // Blob detection looks for positive over-densities: clamp the intensity
  // scale at zero so the background maps to black and thresholds sweep the
  // blob amplitudes (under-densities clip to zero).
  const double lo = 0.0;
  const double hi = *std::max_element(ds.values.begin(), ds.values.end());
  const auto params = blob_config(opt.blob_config);

  auto analyze = [&](const mesh::TriMesh& mesh, const mesh::Field& values) {
    util::WallTimer t;
    const auto raster = analytics::rasterize(mesh, values, opt.raster_px,
                                             opt.raster_px, bounds, lo);
    const auto img = analytics::to_gray8(raster, lo, hi);
    analytics::detect_blobs(img, opt.raster_px, opt.raster_px, params);
    return t.seconds();
  };

  std::vector<PipelineCase> cases;
  std::vector<PipelineCase> full_cases;

  // "None": raw full-accuracy data read from the PFS.
  {
    auto tiers = make_two_tier(1 << 20);
    adios::BpWriter w(tiers, "raw.bp");
    w.write_doubles(ds.variable, adios::BlockKind::kData, 0, ds.values, "raw",
                    0.0, 1u);  // pinned to the slow tier
    w.close();
    apply_fault_model(tiers, opt, 0);  // after the write: faults hit reads only
    adios::BpReader r(tiers, "raw.bp");
    adios::ReadTiming t;
    const auto values = r.read_doubles(ds.variable, adios::BlockKind::kData, 0, &t);
    PipelineCase c;
    c.label = "None";
    c.io = t.io_sim_seconds;
    c.decompress = 0.0;
    c.restore = 0.0;
    c.retries = t.retries;
    c.corruptions = t.corruptions;
    c.replica_reads = t.from_replica ? 1 : 0;
    if (opt.detect_blobs) c.analysis = analyze(ds.mesh, values);
    cases.push_back(c);
    PipelineCase fc = c;
    fc.analysis = 0.0;
    full_cases.push_back(fc);
  }

  std::uint64_t fault_stream = 0;
  for (int ratio : opt.ratios) {
    const auto n_levels =
        static_cast<std::size_t>(std::lround(std::log2(ratio))) + 1;
    auto tiers = make_two_tier(raw_bytes);  // base always fits the fast tier
    // The facade: one Pipeline per case carries the concurrency knobs;
    // requests carry the per-call parameters.
    canopus::Options popt;
    popt.parallel.threads = opt.threads;
    if (opt.cache_mb > 0) {
      cache::CacheConfig cc;
      cc.budget_bytes = opt.cache_mb << 20;
      popt.cache = cc;
    }
    popt.io.depth = opt.io_depth;
    Pipeline pipeline(tiers, popt);

    WriteRequest wreq;
    wreq.path = "run.bp";
    wreq.var = ds.variable;
    wreq.mesh = &ds.mesh;
    wreq.values = &ds.values;
    wreq.config.levels = n_levels;
    wreq.config.codec = opt.codec;
    wreq.config.error_bound = opt.error_bound;
    wreq.config.delta_chunks = opt.delta_chunks;
    const auto ws = pipeline.write(wreq);
    if (!ws.ok()) throw Error("refactor failed: " + ws.to_string());

    // Meshes are static across a simulation campaign; analytics load the
    // geometry once and reuse it for every timestep, so the per-read cases
    // below exclude that one-time cost — and, like the write, that campaign-
    // lifetime preload runs before the per-timestep fault window opens.
    const auto geometry = core::GeometryCache::load(tiers, "run.bp", ds.variable);
    apply_fault_model(tiers, opt, ++fault_stream);

    ReadRequest rreq;
    rreq.path = "run.bp";
    rreq.var = ds.variable;
    rreq.geometry = &geometry;

    // (a) construct the next level of accuracy, then analyze it. With
    // --sessions N > 1 this becomes N concurrent ReadSessions sharing the
    // pipeline's pool (and its cache, when --cache-mb is set); the row then
    // reports the mean per-session cost and the summed fault counters.
    if (opt.sessions > 1) {
      std::vector<std::unique_ptr<ReadSession>> sessions(opt.sessions);
      std::vector<Status> statuses(opt.sessions);
      std::vector<std::thread> clients;
      clients.reserve(opt.sessions);
      for (std::size_t s = 0; s < opt.sessions; ++s) {
        clients.emplace_back([&, s] {
          auto st = pipeline.open_session(rreq, &sessions[s]);
          if (st.ok() && n_levels >= 2) st = sessions[s]->refine();
          statuses[s] = st;
        });
      }
      for (auto& client : clients) client.join();
      PipelineCase c;
      c.label = std::to_string(ratio);
      for (std::size_t s = 0; s < opt.sessions; ++s) {
        if (!statuses[s].usable()) {
          throw Error("session failed: " + statuses[s].to_string());
        }
        const auto& t = sessions[s]->timings();
        c.io += t.io_seconds;
        c.decompress += t.decompress_seconds;
        c.restore += t.restore_seconds;
        c.retries += t.retries;
        c.corruptions += t.corruptions_detected;
        c.replica_reads += t.replica_reads;
      }
      const auto n = static_cast<double>(opt.sessions);
      c.io /= n;
      c.decompress /= n;
      c.restore /= n;
      if (opt.detect_blobs) {
        c.analysis = analyze(sessions.front()->mesh(), sessions.front()->values());
      }
      cases.push_back(c);
    } else {
      std::unique_ptr<core::ProgressiveReader> reader;
      const auto rs = pipeline.open(rreq, &reader);
      if (!rs.ok()) throw Error("open failed: " + rs.to_string());
      auto t = reader->cumulative();
      if (n_levels >= 2) {
        const auto step = reader->refine();
        t += step;
      }
      PipelineCase c;
      c.label = std::to_string(ratio);
      c.io = t.io_seconds;
      c.decompress = t.decompress_seconds;
      c.restore = t.restore_seconds;
      c.retries = t.retries;
      c.corruptions = t.corruptions_detected;
      c.replica_reads = t.replica_reads;
      if (opt.detect_blobs) {
        c.analysis = analyze(reader->current_mesh(), reader->values());
      }
      cases.push_back(c);
    }

    // (b) restore full accuracy from base + all deltas.
    if (full_restoration) {
      ReadResult full;
      rreq.target_level = 0;
      const auto rs = pipeline.read(rreq, &full);
      if (!rs.usable()) throw Error("full restore failed: " + rs.to_string());
      const auto& t = full.timings;
      PipelineCase c;
      c.label = std::to_string(ratio);
      c.io = t.io_seconds;
      c.decompress = t.decompress_seconds;
      c.restore = t.restore_seconds;
      c.retries = t.retries;
      c.corruptions = t.corruptions_detected;
      c.replica_reads = t.replica_reads;
      full_cases.push_back(c);
    }
  }
  if (full_restoration) *full_restoration = std::move(full_cases);
  return cases;
}

inline void print_pipeline_table(const std::string& title,
                                 const std::vector<PipelineCase>& cases,
                                 bool with_analysis, std::ostream& os) {
  std::vector<std::string> header{"decimation", "io(s)", "decompress(s)",
                                  "restore(s)"};
  if (with_analysis) header.push_back("analysis(s)");
  header.push_back("total(s)");
  util::Table t(header);
  for (const auto& c : cases) {
    std::vector<std::string> row{c.label, util::Table::num(c.io, 4),
                                 util::Table::num(c.decompress, 4),
                                 util::Table::num(c.restore, 4)};
    if (with_analysis) row.push_back(util::Table::num(c.analysis, 4));
    row.push_back(util::Table::num(c.total(), 4));
    t.add_row(std::move(row));
  }
  t.print(os, title);
}

/// Fault-path counters for a --fault-rate run: how often each case retried,
/// caught corruption, or fell back to a replica copy.
inline void print_fault_summary(const std::string& title,
                                const std::vector<PipelineCase>& cases,
                                std::ostream& os) {
  util::Table t({"decimation", "retries", "corruptions", "replica-reads"});
  for (const auto& c : cases) {
    t.add_row({c.label, std::to_string(c.retries), std::to_string(c.corruptions),
               std::to_string(c.replica_reads)});
  }
  t.print(os, title);
}

}  // namespace canopus::bench
