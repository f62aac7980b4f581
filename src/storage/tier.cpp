#include "storage/tier.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"
#include "storage/blob_frame.hpp"
#include "storage/fault.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace canopus::storage {

namespace fs = std::filesystem;

namespace {
/// Per-tier counter, e.g. count_for("lustre", "reads") -> "storage.lustre.reads".
/// Callers guard with obs::enabled() so the name concatenation and registry
/// lookup cost nothing when observability is off.
obs::Counter& count_for(const std::string& tier, const char* what) {
  return obs::MetricsRegistry::global().counter("storage." + tier + "." + what);
}
}  // namespace

StorageTier::StorageTier(TierSpec spec) : spec_(std::move(spec)) {
  CANOPUS_CHECK(spec_.read_bandwidth > 0 && spec_.write_bandwidth > 0,
                "tier bandwidth must be positive");
  if (spec_.backend == Backend::kFile) {
    CANOPUS_CHECK(!spec_.root_dir.empty(), "file tier needs root_dir");
    fs::create_directories(spec_.root_dir);
  }
}

void StorageTier::set_fault_injector(FaultInjector* injector,
                                     std::size_t tier_index) {
  faults_ = injector;
  fault_index_ = tier_index;
}

std::string StorageTier::path_for(const std::string& key) const {
  std::string sanitized = key;
  for (char& c : sanitized) {
    if (c == '/' || c == '\\') c = '_';
  }
  return (fs::path(spec_.root_dir) / sanitized).string();
}

IoResult StorageTier::write(const std::string& key, util::BytesView data) {
  const std::size_t existing = contains(key) ? object_size(key) : 0;
  CANOPUS_CHECK(used_ - existing + data.size() <= spec_.capacity_bytes,
                "tier '" + spec_.name + "' over capacity");
  double extra_seconds = 0.0;
  if (faults_) {
    const auto d = faults_->on_write(fault_index_);
    if (d.fail) {
      if (obs::enabled()) count_for(spec_.name, "injected_write_faults").add(1);
      throw TierIoError("injected write failure on tier '" + spec_.name +
                        "' for '" + key + "'");
    }
    extra_seconds = d.extra_seconds;
  }
  if (obs::enabled()) {
    count_for(spec_.name, "writes").add(1);
    count_for(spec_.name, "write_bytes").add(data.size());
  }
  util::WallTimer timer;
  util::Bytes framed = frame_blob(data);
  if (spec_.backend == Backend::kMemory) {
    memory_[key] = std::move(framed);
  } else {
    std::ofstream f(path_for(key), std::ios::binary | std::ios::trunc);
    CANOPUS_CHECK(f.good(), "cannot open " + path_for(key));
    f.write(reinterpret_cast<const char*>(framed.data()),
            static_cast<std::streamsize>(framed.size()));
    CANOPUS_CHECK(f.good(), "write failed: " + path_for(key));
  }
  payload_sizes_[key] = data.size();
  used_ = used_ - existing + data.size();
  return IoResult{write_cost(data.size()) + extra_seconds, timer.seconds(),
                  data.size()};
}

IoResult StorageTier::read(const std::string& key, util::Bytes& out) const {
  util::WallTimer timer;
  const auto size_it = payload_sizes_.find(key);
  CANOPUS_CHECK(size_it != payload_sizes_.end(),
                "object '" + key + "' not on tier '" + spec_.name + "'");
  // A memory tier unframes straight from the stored bytes; `buffer` holds the
  // frame only when it came from a file or must be corrupted, so an injected
  // bit flip never touches the stored blob.
  util::Bytes buffer;
  util::BytesView framed;
  if (spec_.backend == Backend::kMemory) {
    framed = memory_.at(key);
  } else {
    std::ifstream f(path_for(key), std::ios::binary);
    CANOPUS_CHECK(f.good(), "cannot open " + path_for(key));
    buffer.resize(framed_size(size_it->second));
    f.read(reinterpret_cast<char*>(buffer.data()),
           static_cast<std::streamsize>(buffer.size()));
    CANOPUS_CHECK(f.good(), "read failed: " + path_for(key));
    framed = buffer;
  }
  double extra_seconds = 0.0;
  if (faults_) {
    const auto d = faults_->on_read(fault_index_);
    if (d.fail) {
      if (obs::enabled()) count_for(spec_.name, "injected_read_faults").add(1);
      throw TierIoError("injected read failure on tier '" + spec_.name +
                        "' for '" + key + "'");
    }
    if (d.corrupt && !framed.empty()) {
      if (obs::enabled()) count_for(spec_.name, "injected_corruptions").add(1);
      if (spec_.backend == Backend::kMemory) {
        buffer.assign(framed.begin(), framed.end());
      }
      const std::uint64_t bit = d.corrupt_bit % (buffer.size() * 8);
      buffer[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      framed = buffer;
    }
    extra_seconds = d.extra_seconds;
  }
  out = unframe_blob(framed);  // throws IntegrityError on corruption
  const double sim_seconds = read_cost(out.size()) + extra_seconds;
  if (obs::enabled()) {
    count_for(spec_.name, "reads").add(1);
    count_for(spec_.name, "read_bytes").add(out.size());
    // Observed per-read latency (simulated clock, microseconds). Injected
    // latency spikes land here too, which is the point: the serve-layer cost
    // model compares this histogram against the analytic envelope to learn
    // how much slower the tier currently runs than its spec promises
    // (serve/cost_model.hpp, Calibration::tier_factor).
    obs::MetricsRegistry::global()
        .histogram("storage." + spec_.name + ".read_us")
        .observe(sim_seconds * 1e6);
  }
  return IoResult{sim_seconds, timer.seconds(), out.size()};
}

bool StorageTier::contains(const std::string& key) const {
  return payload_sizes_.count(key) > 0;
}

std::size_t StorageTier::object_size(const std::string& key) const {
  auto it = payload_sizes_.find(key);
  CANOPUS_CHECK(it != payload_sizes_.end(), "object '" + key + "' not found");
  return it->second;
}

std::vector<std::string> StorageTier::keys() const {
  std::vector<std::string> out;
  out.reserve(payload_sizes_.size());
  for (const auto& [key, size] : payload_sizes_) {
    (void)size;
    out.push_back(key);
  }
  return out;
}

void StorageTier::erase(const std::string& key) {
  if (!contains(key)) return;
  used_ -= object_size(key);
  if (spec_.backend == Backend::kMemory) {
    memory_.erase(key);
  } else {
    fs::remove(path_for(key));
  }
  payload_sizes_.erase(key);
}

// Preset envelopes. Bandwidths/latencies are order-of-magnitude figures for
// the technologies the paper names (Section I / Figure 2); the benches only
// rely on the *relative* gaps between tiers.
TierSpec tmpfs_spec(std::size_t capacity_bytes) {
  return TierSpec{"tmpfs", capacity_bytes, 8e9, 6e9, 2e-6, 2e-6,
                  Backend::kMemory, ""};
}
TierSpec nvram_spec(std::size_t capacity_bytes) {
  return TierSpec{"nvram", capacity_bytes, 5e9, 2e9, 1e-5, 3e-5,
                  Backend::kMemory, ""};
}
TierSpec ssd_spec(std::size_t capacity_bytes) {
  return TierSpec{"ssd", capacity_bytes, 2e9, 1e9, 1e-4, 1e-4,
                  Backend::kMemory, ""};
}
TierSpec burst_buffer_spec(std::size_t capacity_bytes) {
  return TierSpec{"burst-buffer", capacity_bytes, 1.5e9, 1.2e9, 5e-4, 5e-4,
                  Backend::kMemory, ""};
}
TierSpec lustre_spec(std::size_t capacity_bytes) {
  // Per-client Lustre stream: high latency, modest bandwidth.
  return TierSpec{"lustre", capacity_bytes, 3e8, 2.5e8, 5e-3, 8e-3,
                  Backend::kMemory, ""};
}
TierSpec campaign_spec(std::size_t capacity_bytes) {
  return TierSpec{"campaign", capacity_bytes, 5e7, 4e7, 5e-2, 8e-2,
                  Backend::kMemory, ""};
}

}  // namespace canopus::storage
