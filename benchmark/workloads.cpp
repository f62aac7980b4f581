#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "analytics/raster.hpp"
#include "obs/trace.hpp"
#include "serve/query_scheduler.hpp"
#include "util/assert.hpp"

namespace canopus::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency limit behind slo_miss_frac, and the serve deadline.
constexpr double kSloMs = 50.0;

/// Offered query rates (1/s), fixed numbers never derived from the build
/// under test; the workload lines of BENCHMARK.json state them. campaign
/// runs near 30% of the serve path's capacity (about 1000 to 1100 answered
/// queries/s on a 4-core host), overload near 1.5x.
constexpr double kCampaignRate = 300.0;
constexpr double kOverloadRate = 1600.0;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
double ms_between(Clock::time_point from, Clock::time_point to) {
  return seconds_between(from, to) * 1e3;
}
double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}
Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// SplitMix64: the benchmark's own input stream, independent of the
/// library's generators, so a change to them cannot reshape the load.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(uniform() * static_cast<double>(n)));
  }
  /// Geometric(p) truncated to [0, n): P(k) is proportional to (1 - p)^k.
  std::size_t geometric(double p, std::size_t n) {
    const double mass = 1.0 - std::pow(1.0 - p, static_cast<double>(n));
    const double k = std::floor(std::log1p(-uniform() * mass) / std::log1p(-p));
    return std::min(n - 1, static_cast<std::size_t>(k));
  }
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t state_;
};

std::vector<Timestep> make_timesteps(std::uint64_t seed, std::size_t n) {
  std::vector<Timestep> out;
  out.reserve(n);
  for (std::uint64_t t = 0; t < n; ++t) out.push_back(make_timestep(seed, t));
  return out;
}

Options plain_options() {
  Options o;
  o.parallel.threads = 1;
  o.parallel.pipeline = false;
  o.parallel.read_ahead = false;
  return o;
}

WriteRequest write_request(const Timestep& ts, const std::string& path) {
  WriteRequest req;
  req.path = path;
  req.var = kVar;
  req.mesh = &ts.data.mesh;
  req.values = &ts.data.values;
  req.config = refactor_config();
  return req;
}

ReadRequest read_request(const Timestep& ts,
                         const core::GeometryCache* geometry = nullptr) {
  ReadRequest req;
  req.path = ts.path;
  req.var = kVar;
  req.geometry = geometry;
  return req;
}

/// Digest of a plain Pipeline::read of `ts` at `level`, or nullopt when the
/// read fails or stops at another level.
std::optional<std::uint64_t> read_digest(Pipeline& pipeline, const Timestep& ts,
                                         std::uint32_t level) {
  ReadRequest req = read_request(ts);
  req.target_level = level;
  ReadResult result;
  const Status st = pipeline.read(req, &result);
  if (!st.ok() || result.level != level) return std::nullopt;
  return digest(result.values);
}

/// Counts the outputs whose digest differs from `reference(timestep,
/// level)`, evaluated once per distinct pair.
std::uint64_t count_mismatches(
    const std::vector<OutputRecord>& outputs,
    const std::function<std::optional<std::uint64_t>(std::uint64_t,
                                                     std::uint32_t)>& reference) {
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::optional<std::uint64_t>>
      expected;
  std::uint64_t mismatches = 0;
  for (const auto& out : outputs) {
    const auto key = std::make_pair(out.timestep, out.level);
    auto it = expected.find(key);
    if (it == expected.end()) {
      it = expected.emplace(key, reference(out.timestep, out.level)).first;
    }
    if (!it->second || *it->second != out.digest) ++mismatches;
  }
  return mismatches;
}

/// Records one answered op of wall latency `ms`.
void note_answer(OpLog& log, double ms) {
  ++log.answered;
  log.latency_ms.push_back(ms);
  if (ms > kSloMs) ++log.slo_misses;
}

/// Folds one read's cumulative timings into the read layers. `at_open`, when
/// the op timed its refine calls, is the state after the base retrieval, so
/// the difference is the refine calls' share.
void note_read(OpLog& log, const core::RetrievalTimings* at_open,
               const core::RetrievalTimings& done) {
  ++log.reads;
  log.decode_s += done.decompress_seconds;
  log.restore_s += done.restore_seconds;
  if (at_open != nullptr) {
    log.refine_decode_s += done.decompress_seconds - at_open->decompress_seconds;
    log.refine_restore_s += done.restore_seconds - at_open->restore_seconds;
  }
  log.sim_io_s += done.io_seconds;
  log.op_sim_io_s += done.io_seconds;
  log.bytes_read += done.bytes_read;
}

/// Closed loop: `clients` threads each run `op(rng, log, op_id)` back to back
/// until `seconds` have passed. The window closes when the last op in
/// flight at the deadline completes, so throughput counts whole ops.
OpLog closed_loop(
    std::size_t clients, double seconds, std::uint64_t seed,
    const std::function<void(Rng&, OpLog&, std::uint64_t)>& op) {
  std::vector<OpLog> logs(clients);
  const auto start = Clock::now();
  const auto end = start + to_duration(seconds);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(seed + c);
        for (std::uint64_t i = 0; Clock::now() < end; ++i) {
          try {
            op(rng, logs[c], (static_cast<std::uint64_t>(c) << 40) | i);
          } catch (const std::exception&) {
            ++logs[c].errors;  // a throwing analytics call is a failed op
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  OpLog out;
  out.seconds = seconds_since(start);
  for (auto& log : logs) out.merge(std::move(log));
  return out;
}

/// Box around a blob (pixel coordinates) with a 3-pixel margin, in the
/// world coordinates of the raster frame `bounds`.
mesh::Aabb blob_box(const analytics::Blob& blob, const mesh::Aabb& bounds) {
  const double dx = bounds.width() / static_cast<double>(kRasterPx);
  const double dy = bounds.height() / static_cast<double>(kRasterPx);
  const double r = blob.radius() + 3.0;
  const double cx = bounds.lo.x + (blob.center.x + 0.5) * dx;
  const double cy = bounds.lo.y + (blob.center.y + 0.5) * dy;
  return mesh::Aabb{{cx - r * dx, cy - r * dy}, {cx + r * dx, cy + r * dy}};
}

/// Section IV-D scan-then-zoom on an open reader: detect blobs at the
/// current level, refine only the largest blob's box down to L0, detect
/// again. Returns the digest of the zoomed field and its blobs, or nullopt
/// when a refinement step degraded.
std::optional<std::uint64_t> zoom(core::ProgressiveReader& reader,
                                  const Timestep& ts, OpLog& log,
                                  std::uint64_t op) {
  const auto bounds = ts.data.mesh.bounds();
  const auto detect = [&] {
    const auto t0 = Clock::now();
    analytics::RasterField raster;
    {
      CANOPUS_SPAN("bench.rasterize", {{"op", op}});
      raster = analytics::rasterize(reader.current_mesh(), reader.values(),
                                    kRasterPx, kRasterPx, bounds, 0.0);
    }
    const auto t1 = Clock::now();
    std::vector<analytics::Blob> blobs;
    {
      CANOPUS_SPAN("bench.detect_blobs", {{"op", op}});
      blobs = analytics::detect_blobs(analytics::to_gray8(raster, 0.0, ts.hi),
                                      kRasterPx, kRasterPx, blob_params());
    }
    log.raster_s += seconds_between(t0, t1);
    log.blobs_s += seconds_since(t1);
    return blobs;
  };

  const auto base = detect();
  // Blobs come sorted by area, largest first.
  const mesh::Aabb roi = base.empty() ? bounds : blob_box(base.front(), bounds);
  const auto t0 = Clock::now();
  while (!reader.at_full_accuracy()) {
    CANOPUS_SPAN("bench.refine_region", {{"op", op}});
    reader.refine_region(roi);
    if (reader.last_status() == core::RefineStatus::kDegraded) return std::nullopt;
  }
  log.refine_s += seconds_since(t0);
  const auto zoomed = detect();
  return digest(digest(reader.values()), zoomed);
}

// --- ingest ----------------------------------------------------------------

/// Write path only: each op is a full Pipeline::write (decimate, delta,
/// compress, place) of a timestep to a fresh container. One writer, no
/// cache, blocking I/O; no read layer runs.
class Ingest final : public Workload {
 public:
  explicit Ingest(std::uint64_t seed) : Workload(seed, kInputs) {}

  void setup() override {
    reset(Options{});
    next_ = 0;
    OpLog warm;
    for (std::uint64_t k = 0; k < kWarmupWrites; ++k) {
      const Status st =
          write(inputs_[k], "warmup-" + std::to_string(k) + ".bp", warm, k);
      if (!st.ok()) throw Error("ingest warm-up write failed: " + st.to_string());
    }
  }

  OpLog run(double seconds) override {
    return closed_loop(1, seconds, next_stream(),
                       [this](Rng&, OpLog& log, std::uint64_t) {
                         const std::uint64_t n = next_++;
                         ++log.attempted;
                         const double sim_before = log.write_sim_s;
                         const auto t0 = Clock::now();
                         const Status st =
                             write(inputs_[n % kInputs], container(n), log, n);
                         const double ms = ms_between(t0, Clock::now());
                         if (!st.ok()) {
                           ++log.errors;
                           return;
                         }
                         note_answer(log, ms);
                         log.op_sim_io_s += log.write_sim_s - sim_before;
                         if (n % kKeepEvery == 0) {
                           // The record names the write; verify() reads it back.
                           log.outputs.push_back({n, 0, 0});
                         } else {
                           drop(container(n));
                         }
                       });
  }

  /// Reads a sample of the written containers back at L0 and compares each
  /// with the same timestep written and read by the reference pipeline in a
  /// hierarchy of its own.
  std::uint64_t verify(const OpLog& log) override {
    const auto& writes = log.outputs;
    const std::size_t samples = std::min<std::size_t>(4, writes.size());
    auto reader = reference_pipeline();
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < samples; ++i) {
      const std::uint64_t n = writes[i * writes.size() / samples].timestep;
      Timestep written = inputs_[n % kInputs];
      written.path = container(n);
      const auto got = read_digest(*reader, written, 0);

      Pipeline reference(make_tiers(), plain_options());
      const auto want = reference.write(write_request(written, written.path)).ok()
                            ? read_digest(reference, written, 0)
                            : std::nullopt;
      if (!got || !want || *got != *want) ++mismatches;
    }
    return mismatches;
  }

  // About 60 writes per 10 s window: too few for a p99.
  double tail_q() const override { return 0.90; }

 private:
  static constexpr std::size_t kInputs = 16;
  static constexpr std::uint64_t kWarmupWrites = 4;
  /// Containers kept for the read-back check; the rest are dropped after
  /// their write (outside its timing) so the memory-backed tiers, and with
  /// them peak RSS, do not grow with throughput.
  static constexpr std::uint64_t kKeepEvery = 8;

  static std::string container(std::uint64_t n) {
    return "ingest-" + std::to_string(n) + ".bp";
  }

  void drop(const std::string& path) {
    auto& tiers = pipeline_->hierarchy();
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < tiers.tier_count(); ++i) {
      for (auto& key : tiers.tier(i).keys()) {
        if (key.rfind(path + "/", 0) == 0) keys.push_back(std::move(key));
      }
    }
    for (const auto& key : keys) tiers.erase(key);
  }

  std::uint64_t next_ = 0;
};

// --- scan ------------------------------------------------------------------

/// Cold full-accuracy restore: 2 clients each open a uniformly random one of
/// 24 timesteps and refine it to L0 through a 2 MiB block cache, about 6x
/// smaller than the working set. Blocking I/O: the io-depth-8 variant of
/// this configuration can hang (see README.md).
class Scan final : public Workload {
 public:
  explicit Scan(std::uint64_t seed) : Workload(seed, kTimesteps) {}

  void setup() override {
    cache::CacheConfig cache;
    cache.budget_bytes = 2ull << 20;
    reset(Options{}.with_cache(cache));
    geometry_.clear();
    OpLog scratch;
    for (const auto& ts : inputs_) geometry_.push_back(store(ts, scratch));
    // Fill the cache to its steady state before anything is timed.
    Rng rng(next_stream());
    for (std::uint64_t i = 0; i < 2 * kTimesteps; ++i) {
      scan(rng.below(kTimesteps), scratch, i);
    }
  }

  OpLog run(double seconds) override {
    return closed_loop(2, seconds, next_stream(),
                       [this](Rng& rng, OpLog& log, std::uint64_t op) {
                         scan(rng.below(kTimesteps), log, op);
                       });
  }

 private:
  static constexpr std::size_t kTimesteps = 24;

  void scan(std::size_t t, OpLog& log, std::uint64_t op) {
    ++log.attempted;
    const auto t0 = Clock::now();
    std::unique_ptr<ReadSession> session;
    Status st;
    {
      CANOPUS_SPAN("bench.open_session", {{"op", op}});
      st = pipeline_->open_session(read_request(inputs_[t], &geometry_[t]), &session);
    }
    const auto t1 = Clock::now();
    if (!st.ok()) {
      ++log.errors;
      return;
    }
    const core::RetrievalTimings at_open = session->timings();
    {
      CANOPUS_SPAN("bench.refine_to", {{"op", op}});
      st = session->refine_to(0);
    }
    const auto t2 = Clock::now();
    if (!st.ok() || session->level() != 0) {
      ++log.errors;
      return;
    }
    note_answer(log, ms_between(t0, t2));
    log.open_s += seconds_between(t0, t1);
    log.refine_s += seconds_between(t1, t2);
    note_read(log, &at_open, session->timings());
    log.outputs.push_back({t, 0, digest(session->values())});
  }

  std::vector<core::GeometryCache> geometry_;
};

// --- explore ---------------------------------------------------------------

/// Section IV-D scan-then-zoom: 2 clients pick one of 8 timesteps with
/// geometric (p = 0.3) popularity, detect blobs at base accuracy, refine the
/// largest blob's box to L0 and detect again. A 64 MiB cache, warmed in
/// set-up, holds the whole working set, so analytics dominate and storage
/// idles.
class Explore final : public Workload {
 public:
  explicit Explore(std::uint64_t seed) : Workload(seed, kTimesteps) {}

  void setup() override {
    cache::CacheConfig cache;
    cache.budget_bytes = 64ull << 20;
    io::IoConfig io;
    io.depth = 8;
    reset(Options{}.with_cache(cache).with_io(io));
    geometry_.clear();
    OpLog scratch;
    for (const auto& ts : inputs_) geometry_.push_back(store(ts, scratch));
    for (std::size_t t = 0; t < kTimesteps; ++t) explore(t, scratch, t);
  }

  OpLog run(double seconds) override {
    return closed_loop(2, seconds, next_stream(),
                       [this](Rng& rng, OpLog& log, std::uint64_t op) {
                         explore(rng.geometric(0.3, kTimesteps), log, op);
                       });
  }

  /// Replays each explored timestep's op on a plain reader opened without
  /// the campaign geometry.
  std::uint64_t verify(const OpLog& log) override {
    auto reference = reference_pipeline();
    return count_mismatches(
        log.outputs,
        [&](std::uint64_t t, std::uint32_t) -> std::optional<std::uint64_t> {
          std::unique_ptr<core::ProgressiveReader> reader;
          if (!reference->open(read_request(inputs_[t]), &reader).ok()) {
            return std::nullopt;
          }
          OpLog scratch;
          return zoom(*reader, inputs_[t], scratch, 0);
        });
  }

 private:
  static constexpr std::size_t kTimesteps = 8;

  void explore(std::size_t t, OpLog& log, std::uint64_t op) {
    ++log.attempted;
    const auto t0 = Clock::now();
    std::unique_ptr<ReadSession> session;
    Status st;
    {
      CANOPUS_SPAN("bench.open_session", {{"op", op}});
      st = pipeline_->open_session(read_request(inputs_[t], &geometry_[t]), &session);
    }
    const auto t1 = Clock::now();
    if (!st.ok()) {
      ++log.errors;
      return;
    }
    const core::RetrievalTimings at_open = session->timings();
    const auto result = zoom(session->reader(), inputs_[t], log, op);
    const auto t2 = Clock::now();
    if (!result) {
      ++log.errors;
      return;
    }
    note_answer(log, ms_between(t0, t2));
    log.open_s += seconds_between(t0, t1);
    note_read(log, &at_open, session->timings());
    log.outputs.push_back({t, 0, *result});
  }

  std::vector<core::GeometryCache> geometry_;
};

// --- campaign / overload -----------------------------------------------------

/// Open-loop serving beside a writer. Queries arrive as a Poisson stream at
/// a fixed rate; each asks for full accuracy within a 50 ms retrieval budget,
/// one in four at priority 8, targeting a live timestep with geometric
/// (p = 0.3) popularity toward the newest. One writer appends a timestep
/// every 500 ms. Two scheduler workers, 16 admission slots, no cache,
/// tiering off (tiering with a concurrent writer can crash, see README.md).
///
/// Three benchmark threads: the generator (the caller), a collector polling
/// the futures every 100 us, and the writer.
class Campaign final : public Workload {
 public:
  Campaign(std::uint64_t seed, double seconds, double rate)
      : Workload(seed, kInitial + static_cast<std::size_t>(std::ceil(
                                      seconds / kWriteEverySeconds)) + 2),
        rate_(rate) {}

  void setup() override {
    serve::ServeConfig serve;
    serve.workers = 2;
    serve.queue_limit = 16;
    io::IoConfig io;
    io.depth = 8;
    reset(Options{}.with_io(io).with_serve(serve));
    geometry_.clear();
    OpLog scratch;
    for (std::size_t t = 0; t < kInitial; ++t) publish(inputs_[t], scratch);
    // Start the scheduler's workers and calibration before timing.
    auto& scheduler = pipeline_->query_scheduler();
    for (std::size_t i = 0; i < 2 * kInitial; ++i) {
      serve::QueryResult result;
      const Status st = scheduler.execute(query(i % kInitial, 0), &result);
      if (!st.usable()) throw Error("campaign warm-up query failed: " + st.to_string());
    }
  }

  OpLog run(double seconds) override {
    auto& scheduler = pipeline_->query_scheduler();
    Rng rng(next_stream());
    const auto start = Clock::now();

    std::mutex inbox_mu;
    std::vector<InFlight> inbox;  // guarded by inbox_mu
    std::atomic<bool> generating{true};
    OpLog served;
    OpLog appended;
    OpLog generated;
    std::thread collector([&] { collect(inbox_mu, inbox, generating, served); });
    std::thread writer([&] { append(start, seconds, appended); });

    double due_s = rng.exponential(rate_);
    for (std::uint64_t op = 0; due_s < seconds; ++op, due_s += rng.exponential(rate_)) {
      const auto due = start + to_duration(due_s);
      std::this_thread::sleep_until(due);
      generated.gen_lag_ms.push_back(ms_between(due, Clock::now()));
      std::size_t t = 0;
      {
        std::scoped_lock lock(live_mu_);
        t = geometry_.size() - 1 - rng.geometric(0.3, geometry_.size());
      }
      const bool hi = op % 4 == 0;
      InFlight flight{due, t, hi, {}};
      {
        CANOPUS_SPAN("bench.submit", {{"op", op}});
        flight.future = scheduler.submit(query(t, hi ? 8 : 0));
      }
      ++generated.attempted;
      std::scoped_lock lock(inbox_mu);
      inbox.push_back(std::move(flight));
    }
    generating = false;
    collector.join();
    served.seconds = seconds_since(start);
    writer.join();

    served.merge(std::move(appended));
    served.merge(std::move(generated));
    return served;
  }

  serve::QueryScheduler::Stats serve_stats() const override {
    return pipeline_->query_scheduler().stats();
  }

 private:
  static constexpr std::size_t kInitial = 8;
  static constexpr double kWriteEverySeconds = 0.5;

  struct InFlight {
    Clock::time_point due;
    std::size_t timestep = 0;
    bool hi = false;
    std::future<serve::QueryOutcome> future;
  };

  serve::QueryRequest query(std::size_t t, int priority) {
    serve::QueryRequest req;
    req.path = inputs_[t].path;
    req.var = kVar;
    req.target_level = 0;
    req.deadline_seconds = kSloMs * 1e-3;
    req.priority = priority;
    std::scoped_lock lock(live_mu_);
    req.geometry = &geometry_[t];
    return req;
  }

  /// Stores `ts` and makes it a query target.
  void publish(const Timestep& ts, OpLog& log) {
    auto geometry = store(ts, log);
    std::scoped_lock lock(live_mu_);
    geometry_.push_back(std::move(geometry));
  }

  void append(Clock::time_point start, double seconds, OpLog& log) {
    for (int k = 1; k * kWriteEverySeconds < seconds; ++k) {
      std::this_thread::sleep_until(start + to_duration(k * kWriteEverySeconds));
      std::size_t next = 0;
      {
        std::scoped_lock lock(live_mu_);
        next = geometry_.size();
      }
      if (next >= inputs_.size()) return;
      try {
        publish(inputs_[next], log);
      } catch (const std::exception&) {
        ++log.errors;
      }
    }
  }

  void collect(std::mutex& inbox_mu, std::vector<InFlight>& inbox,
               const std::atomic<bool>& generating, OpLog& log) {
    std::vector<InFlight> pending;
    for (;;) {
      // Read the flag before draining: once it reads false, the generator
      // pushed its last query before clearing it.
      const bool last = !generating.load();
      {
        std::scoped_lock lock(inbox_mu);
        for (auto& f : inbox) pending.push_back(std::move(f));
        inbox.clear();
      }
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const auto finished = Clock::now();
        record(pending[i], pending[i].future.get(), finished, log);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
      if (last && pending.empty()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Latency runs from the query's due time, so a stalled generator or
  /// scheduler shows as latency on every query behind it.
  static void record(const InFlight& flight, serve::QueryOutcome outcome,
                     Clock::time_point finished, OpLog& log) {
    if (outcome.status.code == StatusCode::kOverloaded) {
      ++log.shed;
      return;
    }
    if (!outcome.status.usable()) {
      ++log.errors;
      return;
    }
    const auto& r = outcome.result;
    const double ms = ms_between(flight.due, finished);
    note_answer(log, ms);
    if (flight.hi) log.hi_latency_ms.push_back(ms);
    log.level_sum += r.achieved_level;
    log.queue_wait_ms.push_back(r.queue_seconds * 1e3);
    log.retrieval_cost_ms.push_back(r.timings.total() * 1e3);
    if (r.planned_level == r.achieved_level) ++log.plan_exact;
    note_read(log, nullptr, r.timings);
    log.outputs.push_back({flight.timestep, r.achieved_level, digest(r.values)});
  }

  const double rate_;
  std::mutex live_mu_;
  /// Geometry of the published timesteps (a prefix of inputs_); its size is
  /// the live count. A deque keeps queued queries' pointers valid as the
  /// writer appends.
  std::deque<core::GeometryCache> geometry_;  // guarded by live_mu_
};

}  // namespace

Workload::Workload(std::uint64_t seed, std::size_t timesteps)
    : seed_(seed), inputs_(make_timesteps(seed, timesteps)) {}

std::uint64_t Workload::verify(const OpLog& log) {
  auto reference = reference_pipeline();
  return count_mismatches(log.outputs, [&](std::uint64_t t, std::uint32_t level) {
    return read_digest(*reference, inputs_[t], level);
  });
}

cache::BlockCache::Stats Workload::cache_stats() const {
  const auto* cache = pipeline_ ? pipeline_->block_cache() : nullptr;
  return cache != nullptr ? cache->stats() : cache::BlockCache::Stats{};
}

void Workload::reset(Options options) {
  pipeline_.reset();  // joins the old scheduler before its hierarchy goes
  pipeline_ = std::make_unique<Pipeline>(make_tiers(), std::move(options));
  stored_bytes_ = 0;
  raw_bytes_ = 0;
  windows_ = 0;
}

std::uint64_t Workload::next_stream() {
  return seed_ * 0x9e3779b97f4a7c15ull + windows_++;
}

Status Workload::write(const Timestep& ts, const std::string& path, OpLog& log,
                       std::uint64_t op) {
  WriteResult result;
  Status st;
  {
    CANOPUS_SPAN("bench.write", {{"op", op}});
    st = pipeline_->write(write_request(ts, path), &result);
  }
  if (!st.ok()) return st;
  const auto& report = result.report;
  ++log.writes;
  log.decimate_s += report.phases.get("decimation");
  log.delta_compress_s += report.phases.get("delta+compress");
  log.write_sim_s += report.phases.get("io");
  log.stored_bytes += report.total_stored_bytes();
  log.raw_bytes += report.total_raw_bytes();
  stored_bytes_ += report.total_stored_bytes();
  raw_bytes_ += report.total_raw_bytes();
  return st;
}

core::GeometryCache Workload::store(const Timestep& ts, OpLog& log) {
  const Status st = write(ts, ts.path, log, ts.id);
  if (!st.ok()) throw Error("write of " + ts.path + " failed: " + st.to_string());
  return core::GeometryCache::load(pipeline_->hierarchy(), ts.path, kVar);
}

std::unique_ptr<Pipeline> Workload::reference_pipeline() {
  // The measured state is finished with; reads from here on must not be
  // served by the cache the workload warmed.
  pipeline_->hierarchy().attach_block_cache(nullptr);
  return std::make_unique<Pipeline>(pipeline_->hierarchy(), plain_options());
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"ingest", "scan", "explore",
                                              "campaign", "overload"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds) {
  if (name == "ingest") return std::make_unique<Ingest>(seed);
  if (name == "scan") return std::make_unique<Scan>(seed);
  if (name == "explore") return std::make_unique<Explore>(seed);
  if (name == "campaign") return std::make_unique<Campaign>(seed, seconds, kCampaignRate);
  if (name == "overload") return std::make_unique<Campaign>(seed, seconds, kOverloadRate);
  throw Error("unknown workload '" + name + "'");
}

}  // namespace canopus::e2e
