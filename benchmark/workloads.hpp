#pragma once
// The five workloads. Each drives only the public entry points
// (Pipeline::write/open_session/read, ReadSession::refine_to,
// reader().refine_region, QueryScheduler::submit, analytics::rasterize /
// detect_blobs) and wraps each call in a benchmark-side span carrying the op
// id, so a traced run attributes time without any span inside the library.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/geometry_cache.hpp"
#include "core/pipeline.hpp"
#include "envelope.hpp"
#include "report.hpp"

namespace canopus::e2e {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds fresh program state: tiers, pipeline, stored products, warm
  /// caches. Timed as set-up and run several times; each call replaces the
  /// state the previous one built.
  virtual void setup() = 0;

  /// Drives the load for `seconds` of wall time and returns what it saw.
  virtual OpLog run(double seconds) = 0;

  /// Re-derives the outputs of `log` with a plain single-threaded reference
  /// pipeline (no cache, io depth 1) and returns how many differ. By
  /// default each output is compared with a Pipeline::read of its timestep
  /// at its level.
  virtual std::uint64_t verify(const OpLog& log);

  /// The percentile e2e.latency_tail_ms reports.
  virtual double tail_q() const { return 0.99; }

  cache::BlockCache::Stats cache_stats() const;
  virtual serve::QueryScheduler::Stats serve_stats() const { return {}; }

  /// Stored and raw product bytes over every write into the current state.
  std::uint64_t stored_bytes() const { return stored_bytes_; }
  std::uint64_t raw_bytes() const { return raw_bytes_; }

 protected:
  Workload(std::uint64_t seed, std::size_t timesteps);

  /// Replaces the state with an empty hierarchy behind a pipeline built
  /// from `options`.
  void reset(Options options);
  /// Pipeline::write of `ts` to `path`; charges the write layers to `log`.
  Status write(const Timestep& ts, const std::string& path, OpLog& log,
               std::uint64_t op);
  /// Writes `ts` to its own container and loads its campaign geometry
  /// (meshes are static across a run, so readers get them once). Throws
  /// when the write fails.
  core::GeometryCache store(const Timestep& ts, OpLog& log);
  /// A pipeline over the current hierarchy for reference reads: one
  /// thread, no overlap, no read-ahead, no cache, blocking I/O.
  std::unique_ptr<Pipeline> reference_pipeline();
  /// Seed of the next window's random stream.
  std::uint64_t next_stream();

  const std::uint64_t seed_;
  const std::vector<Timestep> inputs_;  // timestep t is inputs_[t]
  std::unique_ptr<Pipeline> pipeline_;

 private:
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t windows_ = 0;
};

/// Names accepted by make_workload, in run order.
const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from `seed` (enough for `seconds` of
/// load) and returns it ready for setup(). Throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds);

}  // namespace canopus::e2e
