#include "adios/bp.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace canopus::adios {

namespace {
constexpr std::uint32_t kMagic = 0x43424631;  // "CBF1" Canopus BP format v1

std::string block_key(const std::string& path, const BlockRecord& r) {
  return path + "/" + r.var + "/" + to_string(r.kind) + "/l" +
         std::to_string(r.level) + "/c" + std::to_string(r.chunk);
}
}  // namespace

std::string to_string(BlockKind kind) {
  switch (kind) {
    case BlockKind::kBase: return "base";
    case BlockKind::kDelta: return "delta";
    case BlockKind::kMesh: return "mesh";
    case BlockKind::kMapping: return "mapping";
    case BlockKind::kData: return "data";
    case BlockKind::kChunkIndex: return "chunkindex";
  }
  CANOPUS_UNREACHABLE("unknown block kind");
}

void BlockRecord::serialize(util::ByteWriter& out) const {
  out.put_string(var);
  out.put(static_cast<std::uint8_t>(kind));
  out.put(level);
  out.put(chunk);
  out.put(chunk_count);
  out.put_string(codec);
  out.put(error_bound);
  out.put_varint(value_count);
  out.put_varint(raw_bytes);
  out.put_varint(stored_bytes);
  out.put(tier);
  out.put_string(object_key);
}

BlockRecord BlockRecord::deserialize(util::ByteReader& in) {
  BlockRecord r;
  r.var = in.get_string();
  const auto kind = in.get<std::uint8_t>();
  CANOPUS_CHECK(kind <= static_cast<std::uint8_t>(BlockKind::kChunkIndex),
                "bp metadata corrupt (kind)");
  r.kind = static_cast<BlockKind>(kind);
  r.level = in.get<std::uint32_t>();
  r.chunk = in.get<std::uint32_t>();
  r.chunk_count = in.get<std::uint32_t>();
  r.codec = in.get_string();
  r.error_bound = in.get<double>();
  r.value_count = in.get_varint();
  r.raw_bytes = in.get_varint();
  r.stored_bytes = in.get_varint();
  r.tier = in.get<std::uint32_t>();
  r.object_key = in.get_string();
  return r;
}

std::vector<std::uint32_t> VarInfo::levels(BlockKind kind) const {
  std::vector<std::uint32_t> out;
  for (const auto& b : blocks) {
    if (b.kind == kind) out.push_back(b.level);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const BlockRecord* VarInfo::block(BlockKind kind, std::uint32_t level) const& {
  for (const auto& b : blocks) {
    if (b.kind == kind && b.level == level) return &b;
  }
  return nullptr;
}

std::string metadata_key(const std::string& path) { return path + "/.bpmeta"; }

// ----------------------------------------------------------------- Writer --

BpWriter::BpWriter(storage::StorageHierarchy& hierarchy, std::string path)
    : hierarchy_(hierarchy), path_(std::move(path)) {
  CANOPUS_CHECK(!path_.empty(), "bp path must be non-empty");
}

BpWriter::~BpWriter() {
  // Closing in the destructor would swallow errors; an unclosed writer's
  // blocks stay in the hierarchy but the container is simply not readable.
}

WriteTiming BpWriter::store(BlockRecord record, util::BytesView payload,
                            std::optional<std::uint32_t> tier_hint) {
  CANOPUS_CHECK(!closed_, "bp writer already closed");
  // One record per (var, kind, level): replace on rewrite.
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const BlockRecord& r) {
                                  return r.var == record.var &&
                                         r.kind == record.kind &&
                                         r.level == record.level &&
                                         r.chunk == record.chunk;
                                }),
                 records_.end());
  record.object_key = block_key(path_, record);
  record.stored_bytes = payload.size();

  WriteTiming t;
  auto [tier, io] = hierarchy_.place(record.object_key, payload, tier_hint);
  record.tier = static_cast<std::uint32_t>(tier);
  // Base datasets are the anchor of every progressive read; keep a replica
  // one tier down so a failing fast tier degrades instead of blocking.
  if (record.kind == BlockKind::kBase) {
    hierarchy_.replicate_below(record.tier, record.object_key, payload, &io);
  }
  t.io_sim_seconds = io.sim_seconds;
  t.io_wall_seconds = io.wall_seconds;
  t.bytes_written = io.bytes;
  t.tier = record.tier;
  records_.push_back(std::move(record));
  return t;
}

WriteTiming BpWriter::write_doubles(const std::string& var, BlockKind kind,
                                    std::uint32_t level,
                                    std::span<const double> values,
                                    const std::string& codec_name,
                                    double error_bound,
                                    std::optional<std::uint32_t> tier_hint) {
  return write_doubles_chunk(var, kind, level, 0, 1, values, codec_name,
                             error_bound, tier_hint);
}

WriteTiming BpWriter::write_doubles_chunk(const std::string& var, BlockKind kind,
                                          std::uint32_t level, std::uint32_t chunk,
                                          std::uint32_t chunk_count,
                                          std::span<const double> values,
                                          const std::string& codec_name,
                                          double error_bound,
                                          std::optional<std::uint32_t> tier_hint) {
  CANOPUS_CHECK(chunk < chunk_count, "chunk index out of range");
  BlockRecord r;
  r.var = var;
  r.kind = kind;
  r.level = level;
  r.chunk = chunk;
  r.chunk_count = chunk_count;
  r.codec = codec_name;
  r.error_bound = error_bound;
  r.value_count = values.size();
  r.raw_bytes = values.size() * sizeof(double);

  util::WallTimer timer;
  const auto codec = compress::make_codec(codec_name);
  const util::Bytes payload = codec->encode(values, error_bound);
  const double compress_seconds = timer.seconds();

  WriteTiming t = store(std::move(r), payload, tier_hint);
  t.compress_seconds = compress_seconds;
  return t;
}

WriteTiming BpWriter::write_precompressed(const std::string& var, BlockKind kind,
                                          std::uint32_t level,
                                          util::BytesView payload,
                                          const std::string& codec_name,
                                          double error_bound,
                                          std::uint64_t value_count,
                                          std::optional<std::uint32_t> tier_hint) {
  return write_precompressed_chunk(var, kind, level, 0, 1, payload, codec_name,
                                   error_bound, value_count, tier_hint);
}

WriteTiming BpWriter::write_precompressed_chunk(
    const std::string& var, BlockKind kind, std::uint32_t level,
    std::uint32_t chunk, std::uint32_t chunk_count, util::BytesView payload,
    const std::string& codec_name, double error_bound, std::uint64_t value_count,
    std::optional<std::uint32_t> tier_hint) {
  CANOPUS_CHECK(chunk < chunk_count, "chunk index out of range");
  BlockRecord r;
  r.var = var;
  r.kind = kind;
  r.level = level;
  r.chunk = chunk;
  r.chunk_count = chunk_count;
  r.codec = codec_name;
  r.error_bound = error_bound;
  r.value_count = value_count;
  r.raw_bytes = value_count * sizeof(double);
  return store(std::move(r), payload, tier_hint);
}

WriteTiming BpWriter::write_opaque(const std::string& var, BlockKind kind,
                                   std::uint32_t level, util::BytesView bytes,
                                   std::optional<std::uint32_t> tier_hint) {
  BlockRecord r;
  r.var = var;
  r.kind = kind;
  r.level = level;
  r.codec = "none";
  r.raw_bytes = bytes.size();
  return store(std::move(r), bytes, tier_hint);
}

void BpWriter::set_attribute(const std::string& name, const std::string& value) {
  CANOPUS_CHECK(!closed_, "bp writer already closed");
  attributes_[name] = value;
}

void BpWriter::close() {
  CANOPUS_CHECK(!closed_, "bp writer already closed");
  util::ByteWriter meta;
  meta.put(kMagic);
  meta.put_varint(records_.size());
  for (const auto& r : records_) r.serialize(meta);
  meta.put_varint(attributes_.size());
  for (const auto& [k, v] : attributes_) {
    meta.put_string(k);
    meta.put_string(v);
  }
  // The metadata object is a single point of failure for the whole container;
  // replicate it like a base block.
  hierarchy_.place_with_replica(metadata_key(path_), meta.view());
  closed_ = true;
}

// ----------------------------------------------------------------- Reader --

BpReader::BpReader(storage::StorageHierarchy& hierarchy, std::string path)
    : hierarchy_(hierarchy), path_(std::move(path)) {
  util::Bytes meta_bytes;
  hierarchy_.read(metadata_key(path_), meta_bytes);
  util::ByteReader meta(meta_bytes);
  CANOPUS_CHECK(meta.get<std::uint32_t>() == kMagic, "not a canopus bp container");
  const auto nrecords = meta.get_varint();
  records_.reserve(nrecords);
  for (std::uint64_t i = 0; i < nrecords; ++i) {
    records_.push_back(BlockRecord::deserialize(meta));
  }
  const auto nattrs = meta.get_varint();
  for (std::uint64_t i = 0; i < nattrs; ++i) {
    const auto k = meta.get_string();
    attributes_[k] = meta.get_string();
  }
}

std::vector<std::string> BpReader::variables() const {
  std::vector<std::string> names;
  for (const auto& r : records_) {
    if (std::find(names.begin(), names.end(), r.var) == names.end()) {
      names.push_back(r.var);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

VarInfo BpReader::inq_var(const std::string& var) const {
  VarInfo info;
  info.var = var;
  for (const auto& r : records_) {
    if (r.var == var) info.blocks.push_back(r);
  }
  CANOPUS_CHECK(!info.blocks.empty(), "variable '" + var + "' not in container");
  return info;
}

const BlockRecord& BpReader::find_record(const std::string& var, BlockKind kind,
                                         std::uint32_t level,
                                         std::uint32_t chunk) const {
  for (const auto& r : records_) {
    if (r.var == var && r.kind == kind && r.level == level && r.chunk == chunk) {
      return r;
    }
  }
  throw Error("block not found: " + var + "/" + to_string(kind) + "/l" +
              std::to_string(level) + "/c" + std::to_string(chunk));
}

std::vector<double> BpReader::read_doubles(const std::string& var, BlockKind kind,
                                           std::uint32_t level,
                                           ReadTiming* timing) const {
  return read_doubles_chunk(var, kind, level, 0, timing);
}

BpReader::RawChunk BpReader::fetch_chunk(const std::string& var, BlockKind kind,
                                         std::uint32_t level,
                                         std::uint32_t chunk) const {
  const auto& r = find_record(var, kind, level, chunk);
  CANOPUS_CHECK(r.codec != "none", "block is opaque; use read_opaque");
  RawChunk raw;
  raw.record = r;
  const auto io = hierarchy_.read(r.object_key, raw.payload);
  raw.io.io_sim_seconds = io.sim_seconds;
  raw.io.io_wall_seconds = io.wall_seconds;
  raw.io.bytes_read = io.bytes;
  raw.io.retries = io.retries;
  raw.io.corruptions = io.corruptions;
  raw.io.from_replica = io.from_replica;
  return raw;
}

std::vector<double> BpReader::decode_chunk(const BlockRecord& record,
                                           util::BytesView payload,
                                           double* decompress_seconds) {
  util::WallTimer timer;
  const auto codec = compress::make_codec(record.codec);
  auto values = codec->decode(payload);
  CANOPUS_CHECK(values.size() == record.value_count, "bp block corrupt (count)");
  if (decompress_seconds) *decompress_seconds += timer.seconds();
  return values;
}

std::vector<double> BpReader::read_doubles_chunk(const std::string& var,
                                                 BlockKind kind,
                                                 std::uint32_t level,
                                                 std::uint32_t chunk,
                                                 ReadTiming* timing) const {
  const auto raw = fetch_chunk(var, kind, level, chunk);
  double decompress = 0.0;
  auto values = decode_chunk(raw.record, raw.payload, &decompress);
  if (timing) {
    *timing = raw.io;
    timing->decompress_seconds = decompress;
  }
  return values;
}

util::Bytes BpReader::read_opaque(const std::string& var, BlockKind kind,
                                  std::uint32_t level, ReadTiming* timing) const {
  const auto& r = find_record(var, kind, level, 0);
  util::Bytes payload;
  const auto io = hierarchy_.read(r.object_key, payload);
  if (timing) {
    timing->io_sim_seconds = io.sim_seconds;
    timing->io_wall_seconds = io.wall_seconds;
    timing->bytes_read = io.bytes;
    timing->retries = io.retries;
    timing->corruptions = io.corruptions;
    timing->from_replica = io.from_replica;
  }
  return payload;
}

std::optional<std::string> BpReader::attribute(const std::string& name) const {
  auto it = attributes_.find(name);
  if (it == attributes_.end()) return std::nullopt;
  return it->second;
}

}  // namespace canopus::adios
