#pragma once
// Deterministic fault injection for the storage hierarchy.
//
// Production deep hierarchies put deltas on campaign/archive tiers that time
// out, drop requests, and occasionally return corrupt bytes. The FaultInjector
// models those failure modes per tier with independent probabilities, driven
// by one seeded util::Rng so that every run — and therefore every test and
// bench — is reproducible from the seed. Tiers consult the injector on each
// read/write; the hierarchy's retry/replica machinery and the progressive
// reader's graceful degradation are exercised against it.
//
// The decision stream is fixed-shape: an active profile always consumes the
// same number of RNG draws per operation regardless of the outcome, so the
// sequence of decisions depends only on (seed, sequence of operations).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/tier.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace canopus::storage {

/// Thrown when a tier operation fails outright (injected read/write error,
/// or — with real backends — an unreadable file). Distinct from
/// IntegrityError, which means bytes arrived but were corrupt.
class TierIoError : public StorageError {
 public:
  explicit TierIoError(const std::string& what) : StorageError(what) {}
};

/// Per-tier failure probabilities. All in [0, 1]; zero-initialized profile
/// injects nothing.
struct FaultProfile {
  double read_error = 0.0;     // read fails outright (TierIoError)
  double write_error = 0.0;    // write fails outright (TierIoError)
  double corrupt = 0.0;        // read returns bit-flipped bytes (CRC catches)
  double latency_spike = 0.0;  // read/write charged extra simulated seconds
  double spike_seconds = 0.0;  // magnitude of one latency spike

  bool active() const {
    return read_error > 0.0 || write_error > 0.0 || corrupt > 0.0 ||
           latency_spike > 0.0;
  }
};

/// Outcome of consulting the injector for one tier operation.
struct FaultDecision {
  bool fail = false;
  bool corrupt = false;           // reads only
  double extra_seconds = 0.0;     // latency spike to add to the sim clock
  std::uint64_t corrupt_bit = 0;  // caller takes it modulo the blob bit count
};

/// Running totals of everything injected so far.
struct FaultCounters {
  std::uint64_t read_errors = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t latency_spikes = 0;

  std::uint64_t total_faults() const {
    return read_errors + write_errors + corruptions;
  }
};

/// Seedable, deterministic fault source shared by the tiers of one hierarchy.
/// Not thread-safe — same single-writer discipline as StorageHierarchy.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : rng_(seed) {}

  /// Installs the failure profile for tier `tier` (index in the hierarchy,
  /// fastest first). Tiers without a profile never fault.
  void set_profile(std::size_t tier, const FaultProfile& profile);

  /// Profile of a tier (zero profile when none was set).
  const FaultProfile& profile(std::size_t tier) const;

  FaultDecision on_read(std::size_t tier);
  FaultDecision on_write(std::size_t tier);

  const FaultCounters& counters() const { return counters_; }

 private:
  util::Rng rng_;
  std::vector<FaultProfile> profiles_;
  FaultCounters counters_;
};

}  // namespace canopus::storage
