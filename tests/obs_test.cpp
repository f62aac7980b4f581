// Tests for the observability layer (obs/) and the canopus::Pipeline facade:
// histogram bucket math, concurrent metric updates, span nesting and thread
// attribution, Chrome trace_event JSON well-formedness, Status semantics,
// request validation, and the bitwise facade-vs-legacy round-trip identity.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/canopus.hpp"
#include "core/config.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/hierarchy.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ca = canopus::adios;
namespace cu = canopus::util;
namespace obs = canopus::obs;

using canopus::Pipeline;
using canopus::ReadRequest;
using canopus::ReadResult;
using canopus::Status;
using canopus::StatusCode;
using canopus::WriteRequest;
using canopus::WriteResult;

namespace {

/// Scoped enable: turns recording on with a clean slate and restores the
/// disabled default on exit, so tests cannot leak state into each other.
class ObsScope {
 public:
  ObsScope() {
    obs::ObservabilityOptions options;
    options.enabled = true;
    obs::install(options);  // clears prior metrics and spans
  }
  ~ObsScope() { obs::set_enabled(false); }
};

cm::Field smooth_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

cs::StorageHierarchy two_tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
}

/// Every stored object of `var`, read back raw (still compressed).
std::map<std::string, cu::Bytes> stored_objects(cs::StorageHierarchy& tiers,
                                                const std::string& path,
                                                const std::string& var) {
  ca::BpReader reader(tiers, path);
  std::map<std::string, cu::Bytes> objects;
  for (const auto& record : reader.inq_var(var).blocks) {
    cu::Bytes bytes;
    tiers.read(record.object_key, bytes);
    objects[record.object_key] = std::move(bytes);
  }
  return objects;
}

// ------------------------------------------------- minimal JSON validator --
// Recursive-descent structural check: objects, arrays, strings with escapes,
// numbers, true/false/null. Good enough to prove the exporter emits JSON a
// real parser would accept, without pulling in a JSON dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

// ------------------------------------------------------------- histograms --

TEST(Histogram, BucketIndexIsLog2) {
  const std::size_t n = 64;
  // Bucket 0: anything below 1 — including negatives and non-finite values.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0, n), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(0.5, n), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-7.0, n), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(std::nan(""), n), 0u);
  // Bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucket_index(1.0, n), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(1.999, n), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2.0, n), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(3.0, n), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4.0, n), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(1024.0, n), 11u);
  // The last bucket is unbounded above.
  EXPECT_EQ(obs::Histogram::bucket_index(1e300, 8), 7u);
  EXPECT_EQ(obs::Histogram::bucket_index(1e300, n), n - 1);
}

TEST(Histogram, BucketLowerBoundsArePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(0), 0.0);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(1), 1.0);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(2), 2.0);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(3), 4.0);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(11), 1024.0);
  // Bounds and indices agree: every lower bound lands in its own bucket.
  for (std::size_t i = 1; i < 32; ++i) {
    EXPECT_EQ(obs::Histogram::bucket_index(obs::Histogram::bucket_lower_bound(i), 64), i);
  }
}

TEST(Histogram, ObserveAggregatesAndQuantiles) {
  ObsScope on;
  obs::Histogram h(64);
  // 90 samples in [8, 16), 10 samples in [1024, 2048).
  for (int i = 0; i < 90; ++i) h.observe(10.0);
  for (int i = 0; i < 10; ++i) h.observe(1500.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 90 * 10.0 + 10 * 1500.0, 1e-9);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 64u);
  EXPECT_EQ(buckets[obs::Histogram::bucket_index(10.0, 64)], 90u);
  EXPECT_EQ(buckets[obs::Histogram::bucket_index(1500.0, 64)], 10u);
  // Quantiles report the lower bound of the holding bucket.
  EXPECT_EQ(h.quantile(0.5), 8.0);
  EXPECT_EQ(h.quantile(0.99), 1024.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

// ---------------------------------------------------- counters and gauges --

TEST(Metrics, CounterSumsConcurrentAdds) {
  ObsScope on;
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, UpdatesAreNoOpsWhileDisabled) {
  obs::set_enabled(false);
  obs::Counter c;
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
  obs::Gauge g;
  g.set(9);
  EXPECT_EQ(g.value(), 0);
  obs::Histogram h(16);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, GaugeKeepsLastValueAndMax) {
  ObsScope on;
  obs::Gauge g;
  g.set(5);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 5);
}

TEST(Metrics, RegistryHandlesSurviveReset) {
  ObsScope on;
  auto& registry = obs::MetricsRegistry::global();
  auto& c = registry.counter("obs_test.stable");
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
  registry.reset();
  // Same object, zeroed — call sites may cache references across resets.
  EXPECT_EQ(&registry.counter("obs_test.stable"), &c);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, SnapshotListsEveryKind) {
  ObsScope on;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("obs_test.c").add(2);
  registry.gauge("obs_test.g").set(4);
  registry.histogram("obs_test.h").observe(100.0);
  const auto snap = registry.snapshot();
  const auto* c = snap.find("obs_test.c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, obs::MetricsSnapshot::Entry::Kind::kCounter);
  EXPECT_EQ(c->count, 2u);
  const auto* g = snap.find("obs_test.g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, 4);
  const auto* h = snap.find("obs_test.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_NEAR(h->sum, 100.0, 1e-9);
}

// ------------------------------------------------------------------ spans --

TEST(Trace, SpansNestAndAttributeThreads) {
  ObsScope on;
  auto& recorder = obs::TraceRecorder::global();
  {
    CANOPUS_SPAN("outer", {{"level", 1}});
    { CANOPUS_SPAN("inner"); }
  }
  std::thread([] { CANOPUS_SPAN("worker_span"); }).join();

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* worker = nullptr;
  for (const auto& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "worker_span") worker = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(worker, nullptr);
  // Nesting depth reflects enclosure; the inner span lies within the outer.
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  // Same thread for the nest; a different tid for the worker.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_NE(worker->tid, outer->tid);
  EXPECT_EQ(worker->depth, 0u);
  // The span argument came through.
  ASSERT_EQ(outer->args.size(), 1u);
  EXPECT_EQ(outer->args[0].key, "level");
  EXPECT_EQ(outer->args[0].value, "1");
  EXPECT_GE(recorder.thread_count(), 2u);
}

TEST(Trace, SpansAreNotRecordedWhileDisabled) {
  obs::set_enabled(false);
  obs::TraceRecorder::global().clear();
  { CANOPUS_SPAN("ghost"); }
  EXPECT_TRUE(obs::TraceRecorder::global().events().empty());
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  ObsScope on;
  {
    // Name and value with characters the exporter must escape.
    CANOPUS_SPAN("tricky \"name\"\\path", {{"note", "tab\there \"quoted\""}});
    CANOPUS_SPAN("plain", {{"chunk", 3}});
  }
  std::thread([] { CANOPUS_SPAN("worker"); }).join();

  const std::string json = obs::TraceRecorder::global().chrome_trace_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  // The trace_event essentials are present.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\""), std::string::npos);
}

TEST(Trace, SummaryTableAggregatesPerName) {
  ObsScope on;
  { CANOPUS_SPAN("repeat"); }
  { CANOPUS_SPAN("repeat"); }
  obs::MetricsRegistry::global().counter("obs_test.summary").add(3);
  std::ostringstream os;
  obs::write_summary(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("repeat"), std::string::npos);
  EXPECT_NE(out.find("obs_test.summary"), std::string::npos);
}

// ----------------------------------------------------------------- status --

TEST(Status, CodesAndPredicates) {
  EXPECT_TRUE(Status::success().ok());
  EXPECT_TRUE(Status::success().usable());

  const Status failed = Status::failure(StatusCode::kNotFound, "missing");
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(failed.usable());
  EXPECT_EQ(failed.to_string(), "not-found: missing");

  Status degraded;
  degraded.code = StatusCode::kDegraded;
  degraded.degraded = true;
  EXPECT_FALSE(degraded.ok());   // not the accuracy that was asked for...
  EXPECT_TRUE(degraded.usable());  // ...but a usable field nonetheless

  Status retried;
  retried.code = StatusCode::kRetried;
  EXPECT_TRUE(retried.ok());
}

// ----------------------------------------------------------------- facade --

TEST(Pipeline, RejectsMalformedRequests) {
  auto tiers = two_tiers();
  Pipeline pipeline(tiers);

  WriteRequest w;  // no path/var
  EXPECT_EQ(pipeline.write(w).code, StatusCode::kInvalidArgument);

  const auto mesh = cm::make_annulus_mesh(6, 24, 0.5, 1.0, 0.1, 3);
  w.path = "p.bp";
  w.var = "v";
  EXPECT_EQ(pipeline.write(w).code, StatusCode::kInvalidArgument);  // no data
  cm::Field wrong_size(mesh.vertex_count() + 1, 0.0);
  w.mesh = &mesh;
  w.values = &wrong_size;
  EXPECT_EQ(pipeline.write(w).code, StatusCode::kInvalidArgument);

  ReadRequest r;
  r.path = "p.bp";
  r.var = "v";
  EXPECT_EQ(pipeline.read(r, nullptr).code, StatusCode::kInvalidArgument);
  ReadResult result;
  // Nothing has been written: surfaced as a status, not an exception.
  EXPECT_EQ(pipeline.read(r, &result).code, StatusCode::kNotFound);
}

TEST(Pipeline, RejectsDecimatingAnEmptyMesh) {
  auto tiers = two_tiers();
  Pipeline pipeline(tiers);
  const cm::TriMesh empty;
  const cm::Field no_values;
  for (const auto priority : {cm::EdgePriority::kShortestFirst,
                              cm::EdgePriority::kRandom,
                              cm::EdgePriority::kGradientWeighted}) {
    WriteRequest w;
    w.path = "empty.bp";
    w.var = "v";
    w.mesh = &empty;
    w.values = &no_values;
    w.config.levels = 3;
    w.config.decimate.priority = priority;
    EXPECT_EQ(pipeline.write(w).code, StatusCode::kInvalidArgument)
        << "priority " << static_cast<int>(priority);
  }
}

TEST(Pipeline, RoundTripMatchesLegacyApiBitwise) {
  const auto mesh = cm::make_annulus_mesh(12, 80, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 4;

  // Legacy free-function path.
  auto legacy_tiers = two_tiers();
  const auto legacy_report = cc::refactor_and_write(legacy_tiers, "d.bp", "v",
                                                    mesh, values, config);
  cc::ProgressiveReader legacy_reader(legacy_tiers, "d.bp", "v");
  legacy_reader.refine_to(0);

  // Facade path.
  auto tiers = two_tiers();
  Pipeline pipeline(tiers);
  WriteRequest wreq;
  wreq.path = "d.bp";
  wreq.var = "v";
  wreq.mesh = &mesh;
  wreq.values = &values;
  wreq.config = config;
  WriteResult wres;
  ASSERT_TRUE(pipeline.write(wreq, &wres).ok());
  ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";
  rreq.target_level = 0;
  ReadResult rres;
  ASSERT_TRUE(pipeline.read(rreq, &rres).ok());

  // Same products, same placement.
  ASSERT_EQ(wres.report.products.size(), legacy_report.products.size());
  for (std::size_t i = 0; i < wres.report.products.size(); ++i) {
    EXPECT_EQ(wres.report.products[i].name, legacy_report.products[i].name);
    EXPECT_EQ(wres.report.products[i].stored_bytes,
              legacy_report.products[i].stored_bytes);
    EXPECT_EQ(wres.report.products[i].tier, legacy_report.products[i].tier);
  }
  // Same bytes in the container, object by object.
  const auto legacy_objects = stored_objects(legacy_tiers, "d.bp", "v");
  const auto facade_objects = stored_objects(tiers, "d.bp", "v");
  ASSERT_EQ(facade_objects.size(), legacy_objects.size());
  ASSERT_GT(facade_objects.size(), 0u);
  for (const auto& [key, bytes] : legacy_objects) {
    const auto it = facade_objects.find(key);
    ASSERT_NE(it, facade_objects.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }
  // Same restored field, bitwise.
  EXPECT_EQ(rres.level, 0u);
  ASSERT_EQ(rres.values.size(), legacy_reader.values().size());
  for (std::size_t i = 0; i < rres.values.size(); ++i) {
    EXPECT_EQ(rres.values[i], legacy_reader.values()[i]) << "vertex " << i;
  }
}

TEST(Pipeline, AccuracyTargetedReadStopsEarly) {
  const auto mesh = cm::make_annulus_mesh(12, 80, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);
  auto tiers = two_tiers();
  Pipeline pipeline(tiers);
  WriteRequest wreq;
  wreq.path = "d.bp";
  wreq.var = "v";
  wreq.mesh = &mesh;
  wreq.values = &values;
  wreq.config.levels = 4;
  wreq.config.codec = "zfp";
  wreq.config.error_bound = 1e-6;
  ASSERT_TRUE(pipeline.write(wreq).ok());

  ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";
  rreq.rmse_threshold = 1e3;  // hopelessly loose: the base already satisfies it
  ReadResult rres;
  ASSERT_TRUE(pipeline.read(rreq, &rres).usable());
  EXPECT_GT(rres.level, 0u);  // stopped before full accuracy
  // An over-deep target level clamps to the coarsest stored level.
  rreq.rmse_threshold.reset();
  rreq.target_level = 99;
  ASSERT_TRUE(pipeline.read(rreq, &rres).usable());
  EXPECT_EQ(rres.level, 3u);
}

TEST(Pipeline, ConfigObservabilityBlockInstallsOptions) {
  const char* xml = R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="64MiB"/></storage>
    <refactor levels="3" codec="zfp" error-bound="1e-6"/>
    <observability enabled="true" histogram-buckets="16"/>
  </canopus-config>)";
  const auto config = cc::load_config(xml);
  ASSERT_TRUE(config.options.observability.has_value());
  EXPECT_TRUE(config.options.observability->enabled);
  EXPECT_EQ(config.options.observability->histogram_buckets, 16u);
  EXPECT_TRUE(config.options.observability->trace_path.empty());

  std::unique_ptr<Pipeline> pipeline;
  ASSERT_TRUE(Pipeline::load(config, &pipeline).ok());
  EXPECT_TRUE(obs::enabled());
  EXPECT_EQ(obs::MetricsRegistry::global().default_histogram_buckets(), 16u);
  obs::set_enabled(false);
}

TEST(Pipeline, InstrumentedRoundTripRecordsStagesAndMetrics) {
  ObsScope on;
  const auto mesh = cm::make_annulus_mesh(12, 80, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);
  auto tiers = two_tiers();
  Pipeline pipeline(tiers);
  WriteRequest wreq;
  wreq.path = "d.bp";
  wreq.var = "v";
  wreq.mesh = &mesh;
  wreq.values = &values;
  wreq.config.levels = 3;
  wreq.config.codec = "zfp";
  wreq.config.error_bound = 1e-6;
  ASSERT_TRUE(pipeline.write(wreq).ok());
  ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";
  rreq.target_level = 0;
  ReadResult rres;
  ASSERT_TRUE(pipeline.read(rreq, &rres).ok());

  // The hot-path stages all left spans behind...
  std::map<std::string, int> seen;
  for (const auto& e : obs::TraceRecorder::global().events()) ++seen[e.name];
  for (const char* name :
       {"pipeline.write", "refactor.decimate", "refactor.delta",
        "refactor.compress", "refactor.commit", "pipeline.read",
        "read.open_base", "read.fetch", "read.decompress", "read.restore"}) {
    EXPECT_GT(seen[name], 0) << name;
  }
  // ...and the storage tiers counted their traffic.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* writes = snap.find("storage.tmpfs.writes");
  ASSERT_NE(writes, nullptr);
  EXPECT_GT(writes->count, 0u);
  const auto* read_bytes = snap.find("storage.tmpfs.read_bytes");
  ASSERT_NE(read_bytes, nullptr);
  EXPECT_GT(read_bytes->count, 0u);
}
