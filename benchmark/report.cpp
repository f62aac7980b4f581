#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

namespace canopus::e2e {

namespace {

template <typename T>
void append(std::vector<T>& into, std::vector<T>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto* e = s.find(name);
  return e != nullptr ? e->count : 0;
}

const obs::MetricsSnapshot::Entry* histogram(const obs::MetricsSnapshot& s,
                                             const std::string& name) {
  const auto* e = s.find(name);
  return e != nullptr && e->kind == obs::MetricsSnapshot::Entry::Kind::kHistogram
             ? e
             : nullptr;
}

/// Every printed value is finite: a JSON reader rejects NaN and Infinity.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

void OpLog::merge(OpLog&& o) {
  seconds += o.seconds;
  attempted += o.attempted;
  answered += o.answered;
  errors += o.errors;
  mismatches += o.mismatches;
  shed += o.shed;
  slo_misses += o.slo_misses;
  level_sum += o.level_sum;
  append(latency_ms, std::move(o.latency_ms));
  append(hi_latency_ms, std::move(o.hi_latency_ms));
  op_sim_io_s += o.op_sim_io_s;
  writes += o.writes;
  decimate_s += o.decimate_s;
  delta_compress_s += o.delta_compress_s;
  write_sim_s += o.write_sim_s;
  stored_bytes += o.stored_bytes;
  raw_bytes += o.raw_bytes;
  reads += o.reads;
  open_s += o.open_s;
  refine_s += o.refine_s;
  decode_s += o.decode_s;
  restore_s += o.restore_s;
  refine_decode_s += o.refine_decode_s;
  refine_restore_s += o.refine_restore_s;
  sim_io_s += o.sim_io_s;
  bytes_read += o.bytes_read;
  raster_s += o.raster_s;
  blobs_s += o.blobs_s;
  append(queue_wait_ms, std::move(o.queue_wait_ms));
  append(retrieval_cost_ms, std::move(o.retrieval_cost_ms));
  append(gen_lag_ms, std::move(o.gen_lag_ms));
  plan_exact += o.plan_exact;
  append(outputs, std::move(o.outputs));
}

double OpLog::mean_latency_ms() const {
  if (latency_ms.empty()) return 0.0;
  double sum = 0.0;
  for (const double l : latency_ms) sum += l;
  return sum / static_cast<double>(latency_ms.size());
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

MetricList end_to_end_metrics(const OpLog& log, const RunFacts& facts) {
  return {
      {"setup_s", facts.setup_s, "s"},
      {"stored_bytes_ratio",
       ratio(static_cast<double>(facts.stored_bytes),
             static_cast<double>(facts.raw_bytes)),
       "ratio"},
      {"rss_growth_mb", facts.rss_growth_mb, "MiB"},
  };
}

MetricList outcome_metrics(const OpLog& log, const RunFacts& facts) {
  const auto ops = static_cast<double>(log.attempted);
  const double failed =
      static_cast<double>(log.errors + log.mismatches + log.shed);
  return {
      {"e2e.throughput_ops", ratio(static_cast<double>(log.answered), log.seconds),
       "1/s"},
      {"e2e.latency_p50_ms", percentile(log.latency_ms, 0.50), "ms"},
      {"e2e.latency_tail_ms", percentile(log.latency_ms, facts.tail_q), "ms"},
      {"e2e.sim_io_ms_per_op",
       ratio(log.op_sim_io_s * 1e3, static_cast<double>(log.answered)), "ms"},
      {"e2e.mean_level",
       ratio(log.level_sum, static_cast<double>(log.answered)), "level"},
      {"e2e.fail_frac", ratio(failed, ops), "ratio"},
      {"e2e.slo_miss_frac",
       ratio(static_cast<double>(log.slo_misses) + failed, ops), "ratio"},
      {"e2e.hi_latency_p99_ms", percentile(log.hi_latency_ms, 0.99), "ms"},
  };
}

MetricList layer_metrics(const OpLog& log, const LayerSources& src) {
  const auto writes = static_cast<double>(log.writes);
  const auto reads = static_cast<double>(log.reads);
  const auto ops = static_cast<double>(log.attempted);
  const auto& s = src.obs;
  const auto per_op = [&](const std::string& name) {
    return ratio(static_cast<double>(counter(s, name)), ops);
  };
  const auto hist_q = [&](const std::string& name, bool p99) {
    const auto* h = histogram(s, name);
    return h == nullptr ? 0.0 : (p99 ? h->p99 : h->p50);
  };
  const auto* io_submit = histogram(s, "io.submit_us");
  const double prefetch_hits =
      static_cast<double>(counter(s, "reader.prefetch_hits"));
  const double prefetch_all =
      prefetch_hits + static_cast<double>(counter(s, "reader.prefetch_misses") +
                                          counter(s, "reader.prefetch_stale"));
  const double cache_lookups =
      static_cast<double>(src.cache.hits + src.cache.misses);

  return {
      {"mesh.decimate_ms", ratio(log.decimate_s * 1e3, writes), "ms"},
      {"core.delta_compress_ms", ratio(log.delta_compress_s * 1e3, writes), "ms"},
      {"core.open_ms", ratio(log.open_s * 1e3, reads), "ms"},
      {"core.refine_ms", ratio(log.refine_s * 1e3, reads), "ms"},
      {"core.restore_ms", ratio(log.restore_s * 1e3, reads), "ms"},
      {"core.refine_self_ms",
       ratio((log.refine_s - log.refine_decode_s - log.refine_restore_s) * 1e3,
             reads),
       "ms"},
      {"compress.decode_ms", ratio(log.decode_s * 1e3, reads), "ms"},
      {"adios.stored_bytes_per_op",
       ratio(static_cast<double>(log.stored_bytes), writes), "bytes"},
      {"storage.write_sim_ms", ratio(log.write_sim_s * 1e3, writes), "ms"},
      {"storage.sim_io_ms", ratio(log.sim_io_s * 1e3, reads), "ms"},
      {"storage.bytes_read_per_op",
       ratio(static_cast<double>(log.bytes_read), reads), "bytes"},
      {"storage.tmpfs.reads_per_op", per_op("storage.tmpfs.reads"), "count"},
      {"storage.lustre.reads_per_op", per_op("storage.lustre.reads"), "count"},
      {"storage.lustre.read_bytes_per_op", per_op("storage.lustre.read_bytes"),
       "bytes"},
      {"storage.retries", static_cast<double>(counter(s, "hierarchy.retries")),
       "count"},
      {"cache.hit_ratio", ratio(static_cast<double>(src.cache.hits), cache_lookups),
       "ratio"},
      {"cache.evictions_per_op",
       ratio(static_cast<double>(src.cache.evictions), ops), "count"},
      {"cache.single_flight_waits_per_op",
       ratio(static_cast<double>(src.cache.single_flight_waits), ops), "count"},
      {"cache.rejected", static_cast<double>(src.cache.rejected), "count"},
      {"reader.prefetch_hit_ratio", ratio(prefetch_hits, prefetch_all), "ratio"},
      {"io.batches_per_op",
       io_submit == nullptr ? 0.0
                            : ratio(static_cast<double>(io_submit->count), ops),
       "count"},
      {"io.submit_us_p50", hist_q("io.submit_us", false), "us"},
      {"pool.task_wait_us_p50", hist_q("pool.task_wait_us", false), "us"},
      {"pool.task_wait_us_p99", hist_q("pool.task_wait_us", true), "us"},
      {"pool.tasks_per_op", per_op("pool.tasks"), "count"},
      {"analytics.raster_ms", ratio(log.raster_s * 1e3, reads), "ms"},
      {"analytics.blobs_ms", ratio(log.blobs_s * 1e3, reads), "ms"},
      {"serve.queue_wait_ms_p50", percentile(log.queue_wait_ms, 0.50), "ms"},
      {"serve.queue_wait_ms_p99", percentile(log.queue_wait_ms, 0.99), "ms"},
      {"serve.shed_frac",
       ratio(static_cast<double>(src.serve.shed),
             static_cast<double>(src.serve.submitted)),
       "ratio"},
      {"serve.degraded_frac",
       ratio(static_cast<double>(src.serve.degraded),
             static_cast<double>(src.serve.completed)),
       "ratio"},
      {"serve.max_queue_depth", static_cast<double>(src.serve.max_queue_depth),
       "count"},
      {"serve.plan_exact_frac",
       ratio(static_cast<double>(log.plan_exact),
             static_cast<double>(log.retrieval_cost_ms.size())),
       "ratio"},
      {"serve.retrieval_cost_ms_p50", percentile(log.retrieval_cost_ms, 0.50),
       "ms"},
      {"gen.lag_ms_p99", percentile(log.gen_lag_ms, 0.99), "ms"},
      {"obs.overhead_frac", src.overhead_frac, "ratio"},
  };
}

void print_table(std::ostream& os, const std::string& title,
                 const MetricList& metrics) {
  os << title << "\n";
  for (const auto& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g  %s\n", m.name.c_str(),
                  finite(m.value), m.unit.c_str());
    os << line;
  }
}

std::string metrics_json(const MetricList& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << finite(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": " << metrics_json(metrics) << '}';
  return os.str();
}

cache::BlockCache::Stats operator-(const cache::BlockCache::Stats& a,
                                   const cache::BlockCache::Stats& b) {
  cache::BlockCache::Stats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  d.invalidations = a.invalidations - b.invalidations;
  d.single_flight_waits = a.single_flight_waits - b.single_flight_waits;
  d.rejected = a.rejected - b.rejected;
  return d;
}

serve::QueryScheduler::Stats operator-(const serve::QueryScheduler::Stats& a,
                                       const serve::QueryScheduler::Stats& b) {
  serve::QueryScheduler::Stats d;
  d.submitted = a.submitted - b.submitted;
  d.admitted = a.admitted - b.admitted;
  d.shed = a.shed - b.shed;
  d.completed = a.completed - b.completed;
  d.degraded = a.degraded - b.degraded;
  d.failed = a.failed - b.failed;
  // A high-water mark has no delta; the later reading bounds the window.
  d.max_queue_depth = a.max_queue_depth;
  return d;
}

cache::BlockCache::Stats operator+(const cache::BlockCache::Stats& a,
                                   const cache::BlockCache::Stats& b) {
  cache::BlockCache::Stats s;
  s.hits = a.hits + b.hits;
  s.misses = a.misses + b.misses;
  s.evictions = a.evictions + b.evictions;
  s.invalidations = a.invalidations + b.invalidations;
  s.single_flight_waits = a.single_flight_waits + b.single_flight_waits;
  s.rejected = a.rejected + b.rejected;
  return s;
}

serve::QueryScheduler::Stats operator+(const serve::QueryScheduler::Stats& a,
                                       const serve::QueryScheduler::Stats& b) {
  serve::QueryScheduler::Stats s;
  s.submitted = a.submitted + b.submitted;
  s.admitted = a.admitted + b.admitted;
  s.shed = a.shed + b.shed;
  s.completed = a.completed + b.completed;
  s.degraded = a.degraded + b.degraded;
  s.failed = a.failed + b.failed;
  s.max_queue_depth = std::max(a.max_queue_depth, b.max_queue_depth);
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  // statm: total program size, then resident pages.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace canopus::e2e
