#pragma once
// Lock-cheap metrics: counters, gauges, and fixed-log2-bucket histograms.
//
// Every metric is sharded: a hot-path update hashes the calling thread onto
// one of kMetricShards cacheline-aligned slots and performs a relaxed atomic
// add there — no lock, no false sharing, no cross-thread contention until
// snapshot() aggregates the shards. Metric objects are created on first use
// under the registry mutex and never move or die afterwards, so call sites
// may cache the returned reference (typically in a function-local static).
//
// All updates are no-ops while obs::enabled() is false, so instrumented code
// pays one relaxed load per site in the disabled configuration.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/observability.hpp"

namespace canopus::obs {

inline constexpr std::size_t kMetricShards = 16;
inline constexpr std::size_t kMaxHistogramBuckets = 64;

namespace detail {
/// Stable per-thread shard slot in [0, kMetricShards).
std::size_t shard_index();
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-writer-wins instantaneous value (queue depths, active workers).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
    max_.fetch_max(v);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max_value() const { return max_.value(); }
  void reset();

 private:
  /// fetch_max via CAS (std::atomic has no fetch_max for signed types
  /// pre-C++26).
  struct AtomicMax {
    std::atomic<std::int64_t> v{0};
    void fetch_max(std::int64_t x) {
      std::int64_t cur = v.load(std::memory_order_relaxed);
      while (x > cur &&
             !v.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
      }
    }
    std::int64_t value() const { return v.load(std::memory_order_relaxed); }
  };
  std::atomic<std::int64_t> v_{0};
  AtomicMax max_;
};

/// Distribution with fixed log2 buckets: bucket 0 counts values < 1 (and
/// anything non-finite or negative), bucket i >= 1 counts [2^(i-1), 2^i),
/// the last bucket is unbounded above. The unit is the caller's choice
/// (microseconds for latencies, bytes for sizes); log2 keeps the bucket
/// count small across six decades either way.
class Histogram {
 public:
  /// `buckets` is clamped to [2, kMaxHistogramBuckets].
  explicit Histogram(std::size_t buckets);

  void observe(double value);

  /// Bucket that `value` lands in for a `buckets`-bucket histogram.
  static std::size_t bucket_index(double value, std::size_t buckets);
  /// Inclusive lower bound of bucket `index` (0, 1, 2, 4, 8, ...).
  static double bucket_lower_bound(std::size_t index);

  std::uint64_t count() const;
  double sum() const;
  /// Aggregated per-bucket counts, one per bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Quantile estimate (q in [0, 1]) from the aggregated buckets: the lower
  /// bound of the bucket holding the q-th sample. Returns 0 when empty.
  double quantile(double q) const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kMaxHistogramBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::size_t buckets_;
  std::array<Shard, kMetricShards> shards_{};
};

/// Point-in-time aggregated view of every registered metric.
struct MetricsSnapshot {
  struct Entry {
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t count = 0;  // counter value / histogram sample count
    std::int64_t gauge = 0;   // gauge last value
    std::int64_t gauge_max = 0;
    double sum = 0.0;         // histogram sum of observed values
    double p50 = 0.0, p99 = 0.0;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<Entry> entries;  // sorted by name

  const Entry* find(const std::string& name) const;
};

/// Process-wide named-metric registry. Lookup takes a mutex (cache the
/// returned reference at hot call sites); updates through the returned
/// handles are lock-free.
class MetricsRegistry {
 public:
  /// The shared registry. Intentionally leaked so worker threads may still
  /// record during static destruction.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Bucket count for histograms created after this call (existing ones keep
  /// theirs). Clamped to [2, kMaxHistogramBuckets].
  void set_default_histogram_buckets(std::size_t buckets);
  std::size_t default_histogram_buckets() const;

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric; handles stay valid.
  void reset();
  /// Aligned table of every non-zero metric.
  void print_summary(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::size_t default_buckets_ = kMaxHistogramBuckets;
  // node-based maps: element addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace canopus::obs
