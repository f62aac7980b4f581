#pragma once
// Runtime configuration from an ADIOS-style external XML file.
//
// The paper configures transports and tier mappings declaratively
// ("selected and configured in an external XML configuration file", Section
// III-D) so switching layouts needs no recompilation. This loader accepts:
//
//   <canopus-config>
//     <storage policy="fastest-fit">
//       <tier preset="tmpfs"  capacity="4MiB"/>
//       <tier preset="lustre" capacity="1GiB" read-bw="250MB/s"
//             read-latency="5ms"/>
//       <tier name="archive" capacity="8GiB" read-bw="40MB/s"
//             write-bw="40MB/s" read-latency="50ms" write-latency="50ms"
//             backend="file" root="/tmp/archive"/>
//     </storage>
//     <refactor levels="3" step="2" codec="zfp" error-bound="1e-6"
//               estimate="uniform" priority="shortest"
//               tiered-placement="true"/>
//     <threads>4</threads>
//     <pipeline overlap="true" read-ahead="true"/>
//     <faults seed="42">
//       <tier name="lustre" read-error="0.1" corrupt="0.01"
//             latency-spike="0.05" spike-duration="20ms"/>
//     </faults>
//     <retry max-attempts="4" backoff="1ms" multiplier="2"/>
//     <cache budget="64MiB" shards="8"/>
//     <observability enabled="true" trace="run-trace.json"
//                    histogram-buckets="64"/>
//     <io depth="8" batch="4" deadline="5ms"/>
//     <serve workers="4" queue-limit="64" deadline-default="250ms"
//            age-boost="4"/>
//     <fabric nodes="4" partition="range" remote-us="200" remote-bw="1GB/s"/>
//     <tiering enabled="true" half-life="500ms" promote-above="4"
//              demote-below="1" interval="10ms" max-moves="8"
//              cooldown-ticks="2" reserve="0.1"/>
//   </canopus-config>
//
// Presets (tmpfs, nvram, ssd, burst-buffer, lustre, campaign) pull the
// envelope from storage/tier.hpp; explicit attributes override preset
// fields. Sizes accept B/KiB/MiB/GiB/TiB (and KB/MB/GB/TB as powers of ten),
// rates accept .../s of the same units, durations accept ns/us/ms/s.
//
// The document splits in two. RuntimeConfig keeps what only the document
// describes — tiers and placement policy, <refactor>, the <faults> plan, the
// <fabric> shape — and the loader checks those rules itself. The blocks a
// Pipeline consumes (<threads>, <pipeline>, <retry>, <cache>,
// <observability>, <io>, <serve>, <tiering>) parse straight into
// RuntimeConfig::options and are checked by one Options::validate() call.
// Pipeline::load(config) hands those options to a hierarchy built from the
// tiers, plus a fresh FaultInjector from the <faults> plan, so every load
// gets its own fault stream.
//
// Each <faults><tier name="..."> child names a configured tier and sets its
// failure probabilities (read-error, write-error, corrupt, latency-spike in
// [0,1]; spike-duration as a duration). <retry> tunes the hierarchy's read
// retry-with-backoff policy.
//
// <threads> pins the task engine's worker count (0 = hardware concurrency)
// and <pipeline> toggles the writer's compute/commit overlap and the
// reader's delta read-ahead; both land in Options::parallel.
//
// The optional <observability> element configures the metrics + tracing
// layer (src/obs): `enabled` flips the process-wide master switch, `trace`
// names the Chrome-trace JSON sink, and `histogram-buckets` sets latency
// histogram resolution (log2 buckets, clamped to [2, 64]).
//
// The optional <cache> element attaches a shared BlockCache to the hierarchy
// (src/cache): `budget` is a size ("64MiB"; `budget-mb` accepts a bare
// MiB count), `shards` the lock-shard count, and `verify-hits` re-checks
// each hit's CRC-32.
//
// The optional <io> element shapes the asynchronous submission/completion
// engine (src/io) the progressive reader routes its delta fetches through:
// `depth` bounds the in-flight tier operations (1 = blocking, the default),
// `batch` the ops per aggregated submission to the storage hierarchy, and
// `deadline` the per-op simulated-latency deadline (a miss is recorded on
// the io.deadline_misses counter, never enforced).
//
// The optional <serve> element configures the deadline-aware query
// scheduler behind Pipeline::submit_query (src/serve): `workers` is the
// service capacity, `queue-limit` bounds the admission queue (excess
// submissions are shed with kOverloaded), `deadline-default` is the
// retrieval-cost budget of queries that name none, and `age-boost` the
// priority points a waiting query gains per queued second.
//
// The optional <fabric> element describes a simulated multi-node serving
// cluster (src/fabric): `nodes` is the node count, `partition` the chunk
// ownership scheme ("range" = contiguous Morton ranges, "hash" = FNV-1a),
// `remote-us` the per-message one-way latency in microseconds and
// `remote-bw` the inter-node bandwidth of the remote-read envelope. The
// fabric does not demote; the retired `eviction-high`/`eviction-low`/
// `eviction-interval` attributes are rejected by name, pointing at <tiering>.
//
// The optional <tiering> element configures the workload-adaptive tier
// advisor (src/tiering): `enabled` starts its background policy thread,
// `half-life` the access-heat decay, `promote-above`/`demote-below` the
// hysteresis band (promote-above must exceed demote-below; an inverted band
// is rejected with both attributes named), `interval` the policy period,
// `max-moves`/`cooldown-ticks` the churn bounds, and `reserve` the headroom
// fraction kept free on a promotion's target tier (in [0, 1)). The advisor
// is the only code that demotes: a promotion that needs room demotes the
// target tier's coldest objects first.

#include <optional>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/types.hpp"
#include "fabric/fabric_config.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::core {

struct RuntimeConfig {
  std::vector<storage::TierSpec> tiers;  // fastest first, as listed
  storage::PlacementPolicy policy = storage::PlacementPolicy::kFastestFit;
  RefactorConfig refactor;

  /// Fault-injection plan: seed + per-tier profiles, matched by tier name.
  struct TierFaults {
    std::string tier_name;
    storage::FaultProfile profile;
  };
  std::uint64_t fault_seed = 0;
  std::vector<TierFaults> faults;

  /// Simulated-cluster shape from the optional <fabric> element; nullopt
  /// means single-node serving. The loader only parses and validates it —
  /// constructing the fabric::Fabric (and importing a container into it) is
  /// the application's call, since it needs tier specs per node.
  std::optional<canopus::fabric::FabricOptions> fabric;

  /// Everything a Pipeline consumes (parallel, retry, observability, cache,
  /// io, serve, tiering), validated once by the loader. `faults` stays
  /// unset: Pipeline::load builds it from the plan above.
  canopus::Options options;
};

/// Parses a configuration document; throws Error with a description of the
/// offending element (or, for an Options-level rule, the knob and attribute)
/// on invalid input.
RuntimeConfig load_config(const std::string& xml_text);

/// Reads and parses a configuration file.
RuntimeConfig load_config_file(const std::string& path);

/// Unit helpers, exposed for reuse/testing. parse_size throws for a size
/// that is infinite or at least 2^64 bytes.
std::size_t parse_size(const std::string& text);     // "4MiB" -> bytes
double parse_rate(const std::string& text);          // "250MB/s" -> bytes/s
double parse_duration(const std::string& text);      // "5ms" -> seconds

}  // namespace canopus::core
