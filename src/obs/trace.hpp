#pragma once
// Tracing: nested wall-clock spans with thread attribution.
//
//   CANOPUS_SPAN("decimate.level", {{"level", l}});
//
// opens an RAII span that records name, start, duration, thread id, and
// nesting depth when it closes. Spans are buffered per thread (each thread's
// buffer has its own uncontended mutex, so recording never serializes
// threads against each other) and aggregated only on export. Two exports:
//
//   * Chrome trace_event JSON ("ph":"X" complete events with ts/dur/tid) —
//     load in about://tracing or https://ui.perfetto.dev to see the stage
//     pipeline, read-ahead overlap, and per-worker occupancy on a timeline.
//   * A plaintext summary table: per span name, call count and total/mean
//     milliseconds — the per-stage breakdown the paper's figures report.
//
// Recording is wall-clock only: it never touches the simulated storage
// clock, the fault injector's RNG, or task ordering, so enabling tracing
// preserves bitwise determinism of every data product.

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/observability.hpp"

namespace canopus::obs {

/// One span argument, stringified eagerly (span sites are per level/chunk,
/// never per element, so the cost is negligible).
struct SpanArg {
  std::string key;
  std::string value;

  SpanArg(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}
  SpanArg(std::string k, const char* v) : key(std::move(k)), value(v) {}
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  SpanArg(std::string k, T v) : key(std::move(k)), value(std::to_string(v)) {}
};

/// One closed span.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   // start, microseconds since the recorder epoch
  double dur_us = 0.0;  // duration, microseconds
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  // nesting depth on its thread (0 = outermost)
  std::vector<SpanArg> args;
};

class TraceRecorder {
 public:
  /// The shared recorder. Intentionally leaked so pool workers may still
  /// close spans during static destruction.
  static TraceRecorder& global();

  /// RAII span; records into the global recorder iff obs::enabled() was true
  /// at open. Use the CANOPUS_SPAN macro rather than naming this directly.
  class Span {
   public:
    explicit Span(std::string name, std::initializer_list<SpanArg> args = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    bool active_ = false;
    double start_us_ = 0.0;
    std::string name_;
    std::vector<SpanArg> args_;
  };

  /// Drops all recorded events and restarts the timestamp epoch. Thread
  /// buffers stay registered.
  void clear();

  /// Aggregated copy of every recorded event, sorted by start time.
  std::vector<TraceEvent> events() const;

  /// Number of threads that have recorded at least one span.
  std::size_t thread_count() const;

  /// Chrome trace_event JSON (the "traceEvents" object form).
  std::string chrome_trace_json() const;
  /// Writes the Chrome trace to `path`; throws std::runtime_error on I/O
  /// failure.
  void save_chrome_trace(const std::string& path) const;

  /// Per-span-name count/total/mean/max table, sorted by name.
  void print_summary(std::ostream& os) const;

 private:
  struct ThreadLog;
  TraceRecorder();
  ThreadLog& local();
  double now_us() const;
  void record(TraceEvent event);

  mutable std::mutex mu_;                         // guards logs_ and epoch_
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // one per recording thread
  std::int64_t epoch_ns_ = 0;
};

}  // namespace canopus::obs

// CANOPUS_SPAN(name [, {{"key", value}, ...}]): open a span covering the rest
// of the enclosing scope. Variadic so brace-enclosed argument lists (which
// contain commas) pass through unmangled.
#define CANOPUS_SPAN_CONCAT2(a, b) a##b
#define CANOPUS_SPAN_CONCAT(a, b) CANOPUS_SPAN_CONCAT2(a, b)
#define CANOPUS_SPAN(...)                                      \
  ::canopus::obs::TraceRecorder::Span CANOPUS_SPAN_CONCAT(     \
      canopus_span_, __COUNTER__) {                            \
    __VA_ARGS__                                                \
  }
