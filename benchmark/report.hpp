#pragma once
// What a measurement window observed, and how it becomes the benchmark's
// named metrics.
//
// Two clocks never mix: wall seconds measure the program's CPU work, and
// simulated seconds (the storage tiers' cost model, which never sleeps)
// measure data movement. Every metric below is one or the other.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/query_scheduler.hpp"

namespace canopus::e2e {

/// One output a workload produced, re-derived after the window by a plain
/// reference reader: `digest` must equal the reference's for the same
/// (timestep, level).
struct OutputRecord {
  std::uint64_t timestep = 0;
  std::uint32_t level = 0;
  std::uint64_t digest = 0;
};

/// Everything one measurement window observed. Each client thread fills its
/// own and the workload merges them; sums are over the window's ops.
struct OpLog {
  double seconds = 0.0;         // window length (wall)
  std::uint64_t attempted = 0;  // ops started (queries submitted)
  std::uint64_t answered = 0;   // ops that returned a usable result
  std::uint64_t errors = 0;     // ops whose call returned a non-usable Status
  std::uint64_t mismatches = 0; // outputs that differ from the reference
  std::uint64_t shed = 0;       // queries refused by admission control
  std::uint64_t slo_misses = 0; // answered over the latency limit
  double level_sum = 0.0;       // achieved accuracy level, summed
  std::vector<double> latency_ms;     // every answered op (wall)
  std::vector<double> hi_latency_ms;  // the priority-8 stream (wall)
  double op_sim_io_s = 0.0;     // simulated storage time of the ops

  // Write layers (ingest ops and the campaign writer).
  std::uint64_t writes = 0;
  double decimate_s = 0.0;
  double delta_compress_s = 0.0;
  double write_sim_s = 0.0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t raw_bytes = 0;

  // Read layers (wall, except sim_io_s).
  std::uint64_t reads = 0;
  double open_s = 0.0;
  double refine_s = 0.0;
  double decode_s = 0.0;          // RetrievalTimings::decompress_seconds
  double restore_s = 0.0;
  double refine_decode_s = 0.0;   // the refine calls' share of decode_s
  double refine_restore_s = 0.0;  // the refine calls' share of restore_s
  double sim_io_s = 0.0;
  std::uint64_t bytes_read = 0;
  double raster_s = 0.0;
  double blobs_s = 0.0;

  // Serve path and open-loop harness.
  std::vector<double> queue_wait_ms;
  std::vector<double> retrieval_cost_ms;
  std::vector<double> gen_lag_ms;
  std::uint64_t plan_exact = 0;

  std::vector<OutputRecord> outputs;

  void merge(OpLog&& other);
  /// Mean wall latency of the answered ops (ms), 0 when none.
  double mean_latency_ms() const;
};

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> xs, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Run-level facts the end-to-end metrics need besides the window's log.
struct RunFacts {
  double setup_s = 0.0;          // median set-up wall time
  double tail_q = 0.99;          // the percentile e2e.latency_tail_ms reports
  std::uint64_t stored_bytes = 0;  // over every write of the measured state
  std::uint64_t raw_bytes = 0;
  double rss_growth_mb = 0.0;    // peak RSS at the window's end minus inputs
};

/// Layer counters that live outside the op log, as deltas over the traced
/// slices.
struct LayerSources {
  obs::MetricsSnapshot obs;
  cache::BlockCache::Stats cache;
  serve::QueryScheduler::Stats serve;
  double overhead_frac = 0.0;  // traced vs untraced mean op latency, minus 1
};

/// The gated metrics (BENCHMARK.json "end_to_end"): the ones that repeat
/// across runs and seeds on every workload.
MetricList end_to_end_metrics(const OpLog& log, const RunFacts& facts);
/// What a user sees but the host's drift moves too far to gate: wall
/// throughput and latency, plus outcomes that read 0 on some workload.
/// Named e2e.*; BENCHMARK.json lists them under "per_layer".
MetricList outcome_metrics(const OpLog& log, const RunFacts& facts);
/// The traced slices' layer metrics (the rest of "per_layer"); layers a
/// workload does not exercise report 0.
MetricList layer_metrics(const OpLog& log, const LayerSources& sources);

void print_table(std::ostream& os, const std::string& title,
                 const MetricList& metrics);
/// {"<name>": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const MetricList& metrics);
/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics);

/// Field-wise a - b, for counters sampled before and after a window.
cache::BlockCache::Stats operator-(const cache::BlockCache::Stats& a,
                                   const cache::BlockCache::Stats& b);
serve::QueryScheduler::Stats operator-(const serve::QueryScheduler::Stats& a,
                                       const serve::QueryScheduler::Stats& b);
/// Field-wise a + b, for deltas of several windows (high-water marks: max).
cache::BlockCache::Stats operator+(const cache::BlockCache::Stats& a,
                                   const cache::BlockCache::Stats& b);
serve::QueryScheduler::Stats operator+(const serve::QueryScheduler::Stats& a,
                                       const serve::QueryScheduler::Stats& b);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();
/// Current resident set of this process, MiB.
double current_rss_mb();

}  // namespace canopus::e2e
