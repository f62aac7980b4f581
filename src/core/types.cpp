#include "core/types.hpp"

#include <algorithm>

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

std::vector<std::size_t> chunk_bounds(std::size_t n, std::uint32_t chunks) {
  CANOPUS_CHECK(chunks >= 1 && chunks <= std::max<std::size_t>(1, n),
                std::to_string(chunks) + " chunks of " + std::to_string(n) +
                    " values");
  std::vector<std::size_t> bounds;
  bounds.reserve(chunks + std::size_t{1});
  for (std::uint32_t c = 0; c <= chunks; ++c) bounds.push_back(n * c / chunks);
  return bounds;
}

ChunkIndex ChunkIndex::derive(std::span<const mesh::Vec2> positions,
                              const std::vector<mesh::VertexId>& order,
                              std::uint32_t chunks) {
  CANOPUS_CHECK(order.size() == positions.size(),
                "chunk index: storage order does not match the level");
  const auto bounds = chunk_bounds(order.size(), chunks);
  ChunkIndex index;
  index.chunks.reserve(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    Range range;
    range.start = bounds[c];
    range.count = bounds[c + 1] - bounds[c];
    if (range.count > 0) range.bbox.lo = range.bbox.hi = positions[order[bounds[c]]];
    for (std::size_t pos = bounds[c]; pos < bounds[c + 1]; ++pos) {
      range.bbox.expand(positions[order[pos]]);
    }
    index.chunks.push_back(range);
  }
  return index;
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

}  // namespace canopus::core
