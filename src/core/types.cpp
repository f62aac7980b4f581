#include "core/types.hpp"

#include "adios/bp.hpp"
#include "storage/tier.hpp"
#include "util/assert.hpp"

namespace canopus::core {

RetrievalTimings& RetrievalTimings::operator+=(const RetrievalTimings& o) {
  io_seconds += o.io_seconds;
  decompress_seconds += o.decompress_seconds;
  restore_seconds += o.restore_seconds;
  bytes_read += o.bytes_read;
  retries += o.retries;
  corruptions_detected += o.corruptions_detected;
  replica_reads += o.replica_reads;
  degraded_steps += o.degraded_steps;
  values_decoded += o.values_decoded;
  return *this;
}

void RetrievalTimings::charge(const adios::ReadTiming& read) {
  io_seconds += read.io_sim_seconds;
  decompress_seconds += read.decompress_seconds;
  bytes_read += read.bytes_read;
  retries += read.retries;
  corruptions_detected += read.corruptions;
  if (read.from_replica) ++replica_reads;
}

void RetrievalTimings::charge(const storage::IoResult& io) {
  io_seconds += io.sim_seconds;
  bytes_read += io.bytes;
  retries += io.retries;
  corruptions_detected += io.corruptions;
  if (io.from_replica) ++replica_reads;
}

std::string to_string(EstimateMode mode) {
  switch (mode) {
    case EstimateMode::kUniformThirds: return "uniform";
    case EstimateMode::kBarycentric: return "barycentric";
    case EstimateMode::kGradient: return "gradient";
  }
  CANOPUS_UNREACHABLE("unknown estimate mode");
}

EstimateMode estimate_mode_from_string(const std::string& s) {
  if (s == "uniform") return EstimateMode::kUniformThirds;
  if (s == "barycentric") return EstimateMode::kBarycentric;
  if (s == "gradient") return EstimateMode::kGradient;
  throw Error("unknown estimate mode: " + s);
}

namespace {
// Layout byte, the first byte of a mapping block: a varint triangle per
// entry.
constexpr std::uint8_t kTriangles = 0;
}  // namespace

void VertexMapping::serialize(util::ByteWriter& out) const {
  out.put(kTriangles);
  out.put_varint(triangle.size());
  for (const auto t : triangle) out.put_varint(t);
}

VertexMapping VertexMapping::deserialize(util::ByteReader& in,
                                         std::size_t fine_vertices,
                                         std::size_t coarse_triangles) {
  const auto layout = in.get<std::uint8_t>();
  CANOPUS_CHECK(layout == kTriangles,
                "unknown layout " + std::to_string(layout));
  const auto n = in.get_varint();
  CANOPUS_CHECK(n == fine_vertices,
                std::to_string(n) + " entries for " +
                    std::to_string(fine_vertices) + " fine vertices");
  // Every entry takes at least one varint byte.
  CANOPUS_CHECK(n <= in.remaining(), std::to_string(n) + " entries in " +
                                         std::to_string(in.remaining()) +
                                         " bytes");
  VertexMapping m;
  m.triangle.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto t = in.get_varint();
    CANOPUS_CHECK(t < coarse_triangles,
                  "triangle " + std::to_string(t) + " of " +
                      std::to_string(coarse_triangles) + " coarse triangles");
    m.triangle.push_back(static_cast<std::uint32_t>(t));
  }
  return m;
}

std::vector<std::uint32_t> ChunkIndex::intersecting(const mesh::Aabb& roi) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t c = 0; c < chunks.size(); ++c) {
    const auto& b = chunks[c].bbox;
    const bool disjoint = b.hi.x < roi.lo.x || b.lo.x > roi.hi.x ||
                          b.hi.y < roi.lo.y || b.lo.y > roi.hi.y;
    if (!disjoint) out.push_back(c);
  }
  return out;
}

void ChunkIndex::serialize(util::ByteWriter& out) const {
  out.put_varint(chunks.size());
  for (const auto& c : chunks) {
    out.put_varint(c.start);
    out.put_varint(c.count);
    out.put(c.bbox.lo.x);
    out.put(c.bbox.lo.y);
    out.put(c.bbox.hi.x);
    out.put(c.bbox.hi.y);
  }
}

ChunkIndex ChunkIndex::deserialize(util::ByteReader& in) {
  ChunkIndex idx;
  const auto n = in.get_varint();
  // Every range takes at least two varint bytes and four doubles.
  CANOPUS_CHECK(n <= in.remaining() / (2 + 4 * sizeof(double)),
                "chunk index block: " + std::to_string(n) + " chunks in " +
                    std::to_string(in.remaining()) + " bytes");
  idx.chunks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Range r;
    r.start = in.get_varint();
    r.count = in.get_varint();
    r.bbox.lo.x = in.get<double>();
    r.bbox.lo.y = in.get<double>();
    r.bbox.hi.x = in.get<double>();
    r.bbox.hi.y = in.get<double>();
    idx.chunks.push_back(r);
  }
  return idx;
}

}  // namespace canopus::core
