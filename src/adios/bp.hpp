#pragma once
// ADIOS-like self-describing container ("BP" format) over a storage hierarchy.
//
// Canopus is implemented in the paper as an ADIOS transport: simulations call
// the declarative write API, analytics call the query/read API
// (adios_inq_var / adios_read_var), and a metadata-rich binary-packed format
// tracks where each refactored product lives across storage tiers. This
// module reproduces that layer: a BpWriter compresses and places per-level
// blocks plus opaque blobs (mesh geometry, restoration mappings), and a
// BpReader answers variable inquiries and retrieves blocks by
// (variable, level, kind) with per-phase timing.
//
// Layout: every block is one object in the StorageHierarchy; the global
// metadata (the block index + attributes) is itself serialized as an object
// on the fastest tier that fits it, mirroring ADIOS' small metadata file.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "storage/hierarchy.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::adios {

/// Role of a block within a refactored variable.
enum class BlockKind : std::uint8_t {
  kBase = 0,        // L^{N-1}, the low-accuracy base dataset
  kDelta = 1,       // delta^{l-(l+1)}
  kMesh = 2,        // serialized TriMesh for a level
  kMapping = 3,     // fine-vertex -> coarse-triangle mapping
  kData = 4,        // plain (non-refactored) variable payload
  kChunkIndex = 5,  // per-chunk vertex ranges + bounding boxes of a level
  kCollapseLog = 6, // collapses that decimate level l-1 into level l
};

std::string to_string(BlockKind kind);

/// Index entry for one stored block.
struct BlockRecord {
  std::string var;            // variable name, e.g. "dpot"
  BlockKind kind = BlockKind::kData;
  std::uint32_t level = 0;    // accuracy level the block belongs to
  std::uint32_t chunk = 0;    // chunk index within (var, kind, level)
  std::uint32_t chunk_count = 1;  // total chunks of that block group
  std::string codec = "raw";  // codec used on the payload ("none" = opaque)
  double error_bound = 0.0;
  std::uint64_t value_count = 0;  // doubles before compression (0 if opaque)
  std::uint64_t raw_bytes = 0;    // payload size before compression
  std::uint64_t stored_bytes = 0; // payload size as stored
  std::string object_key;         // hierarchy object name; find() its tier

  void serialize(util::ByteWriter& out) const;
  static BlockRecord deserialize(util::ByteReader& in);
};

/// Result of an inquiry, in the spirit of adios_inq_var.
struct VarInfo {
  std::string var;
  std::vector<BlockRecord> blocks;  // every stored block of this variable

  /// Levels for which a block of `kind` exists, ascending.
  std::vector<std::uint32_t> levels(BlockKind kind) const;
  /// Pointer into this VarInfo's blocks (lvalue-only: calling it on a
  /// temporary would dangle, so that overload is deleted).
  const BlockRecord* block(BlockKind kind, std::uint32_t level) const&;
  const BlockRecord* block(BlockKind kind, std::uint32_t level) const&& = delete;
};

/// Timing breakdown of a read: tier I/O (simulated) vs decompression (wall),
/// plus the hierarchy's robustness counters for this read.
struct ReadTiming {
  double io_sim_seconds = 0.0;
  double io_wall_seconds = 0.0;
  double decompress_seconds = 0.0;
  std::size_t bytes_read = 0;
  std::uint32_t retries = 0;      // failed tier reads that were retried
  std::uint32_t corruptions = 0;  // CRC failures among those
  bool from_replica = false;      // served by a cross-tier replica copy
};

/// Timing breakdown of a write: compression (wall) vs tier I/O (simulated).
struct WriteTiming {
  double compress_seconds = 0.0;
  double io_sim_seconds = 0.0;
  double io_wall_seconds = 0.0;
  std::size_t bytes_written = 0;
  std::uint32_t tier = 0;
};

/// Writes one BP container. Blocks may be written in any order; close()
/// publishes the metadata object (until then readers cannot open the file).
class BpWriter {
 public:
  /// `path` names the container; all object keys are prefixed with it.
  BpWriter(storage::StorageHierarchy& hierarchy, std::string path);
  ~BpWriter();

  BpWriter(const BpWriter&) = delete;
  BpWriter& operator=(const BpWriter&) = delete;

  /// Compresses `values` with `codec_name` and places the block on the
  /// fastest tier that fits (or on `tier_hint` when given and it has room;
  /// a full hinted tier is bypassed like any other).
  WriteTiming write_doubles(const std::string& var, BlockKind kind,
                            std::uint32_t level, std::span<const double> values,
                            const std::string& codec_name, double error_bound,
                            std::optional<std::uint32_t> tier_hint = {});

  /// Chunked variant: stores `values` as chunk `chunk` of `chunk_count`
  /// independently decodable pieces of the (var, kind, level) block group,
  /// enabling focused sub-range retrieval (Section III-E).
  WriteTiming write_doubles_chunk(const std::string& var, BlockKind kind,
                                  std::uint32_t level, std::uint32_t chunk,
                                  std::uint32_t chunk_count,
                                  std::span<const double> values,
                                  const std::string& codec_name,
                                  double error_bound,
                                  std::optional<std::uint32_t> tier_hint = {});

  /// Stores opaque bytes (mesh geometry, mappings) without compression.
  WriteTiming write_opaque(const std::string& var, BlockKind kind,
                           std::uint32_t level, util::BytesView bytes,
                           std::optional<std::uint32_t> tier_hint = {});

  /// Stores an already-encoded double block (compression ran elsewhere, e.g.
  /// on a worker thread). `payload` must be the output of `codec_name`'s
  /// encode() over `value_count` doubles with `error_bound`.
  WriteTiming write_precompressed(const std::string& var, BlockKind kind,
                                  std::uint32_t level, util::BytesView payload,
                                  const std::string& codec_name,
                                  double error_bound, std::uint64_t value_count,
                                  std::optional<std::uint32_t> tier_hint = {});

  /// Chunked variant of write_precompressed: how the parallel refactorer
  /// commits delta chunks whose encoding ran on pool workers — the committer
  /// thread places them in deterministic chunk order.
  WriteTiming write_precompressed_chunk(
      const std::string& var, BlockKind kind, std::uint32_t level,
      std::uint32_t chunk, std::uint32_t chunk_count, util::BytesView payload,
      const std::string& codec_name, double error_bound,
      std::uint64_t value_count, std::optional<std::uint32_t> tier_hint = {});

  void set_attribute(const std::string& name, const std::string& value);

  /// Publishes metadata; further writes are rejected.
  void close();
  bool closed() const { return closed_; }

 private:
  WriteTiming store(BlockRecord record, util::BytesView payload,
                    std::optional<std::uint32_t> tier_hint);

  storage::StorageHierarchy& hierarchy_;
  std::string path_;
  std::vector<BlockRecord> records_;
  std::map<std::string, std::string> attributes_;
  bool closed_ = false;
};

/// Reads a BP container written by BpWriter.
class BpReader {
 public:
  BpReader(storage::StorageHierarchy& hierarchy, std::string path);

  /// All variable names in the container.
  std::vector<std::string> variables() const;

  /// adios_inq_var: every block of one variable. Throws if absent.
  VarInfo inq_var(const std::string& var) const;

  /// adios_read_var: retrieve + decompress one double block (chunk 0).
  std::vector<double> read_doubles(const std::string& var, BlockKind kind,
                                   std::uint32_t level,
                                   ReadTiming* timing = nullptr) const;

  /// Retrieve one chunk of a chunked block group.
  std::vector<double> read_doubles_chunk(const std::string& var, BlockKind kind,
                                         std::uint32_t level, std::uint32_t chunk,
                                         ReadTiming* timing = nullptr) const;

  /// Decodes a fetched payload with the record's codec; adds the decode wall
  /// time to *decompress_seconds when given. Pure function of its arguments,
  /// safe to call concurrently from pool workers (the progressive reader
  /// decodes a level's chunks in parallel with it).
  static std::vector<double> decode_chunk(const BlockRecord& record,
                                          util::BytesView payload,
                                          double* decompress_seconds = nullptr);

  /// Retrieve one opaque block; `admission` as StorageHierarchy::read.
  util::Bytes read_opaque(
      const std::string& var, BlockKind kind, std::uint32_t level,
      ReadTiming* timing = nullptr,
      storage::Admission admission = storage::Admission::kAdmit) const;

  std::optional<std::string> attribute(const std::string& name) const;

 private:
  const BlockRecord& find_record(const std::string& var, BlockKind kind,
                                 std::uint32_t level, std::uint32_t chunk) const;

  storage::StorageHierarchy& hierarchy_;
  std::string path_;
  std::vector<BlockRecord> records_;
  std::map<std::string, std::string> attributes_;
};

/// Object key of the metadata blob for a container path.
std::string metadata_key(const std::string& path);

}  // namespace canopus::adios
