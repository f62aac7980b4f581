#pragma once
// A single storage tier: capacity + performance envelope + backing store.
//
// The paper emulates a two-tier hierarchy (DRAM tmpfs + Lustre) on Titan; we
// generalize to arbitrary tier stacks (HBM/NVRAM/SSD/burst-buffer/PFS/campaign)
// with a deterministic linear cost model (latency + bytes/bandwidth) so that
// bench output is reproducible on any machine while preserving the relative
// speed gaps that drive the paper's end-to-end results. Objects are byte
// blobs addressed by name; backends either hold them in memory or spill them
// to real files (useful to exercise the POSIX path).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::storage {

class FaultInjector;

enum class Backend : std::uint8_t {
  kMemory,  // std::map of blobs; cost model only
  kFile,    // one file per object under root_dir; cost model + real I/O
};

struct TierSpec {
  std::string name;
  std::size_t capacity_bytes = 0;
  double read_bandwidth = 1e9;   // bytes / second
  double write_bandwidth = 1e9;  // bytes / second
  double read_latency = 0.0;     // seconds / operation
  double write_latency = 0.0;    // seconds / operation
  Backend backend = Backend::kMemory;
  std::string root_dir;  // required for kFile
};

/// Simulated + measured cost of one I/O operation. The robustness fields are
/// filled by StorageHierarchy's retry/replica machinery; a plain tier-level
/// operation leaves them at their defaults.
struct IoResult {
  double sim_seconds = 0.0;   // cost-model time (deterministic)
  double wall_seconds = 0.0;  // actual elapsed time (backend-dependent)
  std::size_t bytes = 0;
  std::uint32_t retries = 0;      // failed attempts that were retried
  std::uint32_t corruptions = 0;  // CRC failures among those attempts
  bool from_replica = false;      // satisfied by a cross-tier replica copy
  bool from_cache = false;        // satisfied by the shared block cache
};

/// Base of the tier failures, TierIoError and IntegrityError. When a read
/// exhausts every copy, StorageHierarchy sets `charge` to what its attempts
/// cost (retries, corruptions, transfer time and backoff) before the error
/// propagates, so a failed read is charged like a successful one.
class StorageError : public Error {
 public:
  using Error::Error;
  IoResult charge;
};

class StorageTier {
 public:
  explicit StorageTier(TierSpec spec);

  const TierSpec& spec() const { return spec_; }
  std::size_t used_bytes() const { return used_; }
  std::size_t free_bytes() const {
    return spec_.capacity_bytes > used_ ? spec_.capacity_bytes - used_ : 0;
  }
  bool fits(std::size_t nbytes) const { return nbytes <= free_bytes(); }

  /// Routes this tier's I/O through a fault injector (not owned; must outlive
  /// the tier). `tier_index` selects which FaultProfile applies. Pass nullptr
  /// to detach.
  void set_fault_injector(FaultInjector* injector, std::size_t tier_index);

  /// Stores (or replaces) an object; throws Error when capacity is exceeded
  /// and TierIoError on an injected write failure. The payload is wrapped in
  /// an integrity frame (storage/blob_frame.hpp) before it hits the backend;
  /// capacity, sizes, and the cost model all stay in payload bytes.
  IoResult write(const std::string& key, util::BytesView data);

  /// Loads an object; throws Error when missing, TierIoError on an injected
  /// read failure, and IntegrityError when the stored frame fails its CRC
  /// (injected bit flips or real on-disk corruption).
  IoResult read(const std::string& key, util::Bytes& out) const;

  bool contains(const std::string& key) const;
  std::size_t object_size(const std::string& key) const;

  /// Names of every object on this tier (sorted). The tier advisor ranks
  /// room-making victims from it (StorageHierarchy::keys_on_tier).
  std::vector<std::string> keys() const;

  /// Removes an object (no-op when absent); frees its capacity.
  void erase(const std::string& key);

  /// Cost model, exposed for planning: latency + bytes / bandwidth.
  double write_cost(std::size_t nbytes) const {
    return spec_.write_latency +
           static_cast<double>(nbytes) / spec_.write_bandwidth;
  }
  double read_cost(std::size_t nbytes) const {
    return spec_.read_latency +
           static_cast<double>(nbytes) / spec_.read_bandwidth;
  }

 private:
  std::string path_for(const std::string& key) const;

  TierSpec spec_;
  std::size_t used_ = 0;
  std::map<std::string, util::Bytes> memory_;         // kMemory framed blobs
  std::map<std::string, std::size_t> payload_sizes_;  // logical object sizes
  FaultInjector* faults_ = nullptr;                   // not owned; may be null
  std::size_t fault_index_ = 0;
};

/// Factory presets modeled on published system characteristics; capacities
/// are scaled-down defaults that benches override per scenario.
TierSpec tmpfs_spec(std::size_t capacity_bytes);
TierSpec nvram_spec(std::size_t capacity_bytes);
TierSpec ssd_spec(std::size_t capacity_bytes);
TierSpec burst_buffer_spec(std::size_t capacity_bytes);
TierSpec lustre_spec(std::size_t capacity_bytes);
TierSpec campaign_spec(std::size_t capacity_bytes);

}  // namespace canopus::storage
