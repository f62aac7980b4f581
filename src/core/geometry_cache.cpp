#include "core/geometry_cache.hpp"

#include <charconv>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "adios/bp.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace canopus::core {

namespace {

/// Geometry fingerprint for the spatial-order memo: vertex count, bounds,
/// and a CRC of the raw coordinate bytes. Computing it is O(n) with a small
/// constant — far cheaper than the O(n log n) Morton sort it saves.
using OrderKey = std::tuple<std::size_t, double, double, double, double,
                            std::uint32_t>;

OrderKey order_key(const mesh::TriMesh& mesh) {
  const auto box = mesh.bounds();
  const auto& verts = mesh.vertices();
  const auto crc = util::Crc32::compute(util::BytesView(
      reinterpret_cast<const std::byte*>(verts.data()),
      verts.size() * sizeof(mesh::Vec2)));
  return {mesh.vertex_count(), box.lo.x, box.lo.y, box.hi.x, box.hi.y, crc};
}

}  // namespace

std::shared_ptr<const std::vector<mesh::VertexId>> cached_spatial_order(
    const mesh::TriMesh& mesh) {
  static std::mutex mu;
  static std::map<OrderKey, std::shared_ptr<const std::vector<mesh::VertexId>>>
      memo;

  const auto key = order_key(mesh);
  {
    std::lock_guard lock(mu);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }
  // Sort outside the lock: concurrent first requests for the same mesh may
  // both compute, but the result is a pure function of the geometry so
  // whichever insert wins is identical.
  auto order = std::make_shared<const std::vector<mesh::VertexId>>(
      mesh::spatial_order(mesh));
  std::lock_guard lock(mu);
  // A process analyzes a handful of distinct meshes; cap the memo so a
  // pathological stream of unique meshes cannot grow it unboundedly.
  if (memo.size() >= 128) memo.clear();
  return memo.try_emplace(key, std::move(order)).first->second;
}

std::size_t container_levels(const adios::BpReader& reader) {
  const auto attr = reader.attribute("levels");
  CANOPUS_CHECK(attr.has_value(), "container missing 'levels' attribute");
  std::uint32_t levels = 0;
  const char* end = attr->data() + attr->size();
  const auto [ptr, ec] = std::from_chars(attr->data(), end, levels);
  CANOPUS_CHECK(ec == std::errc() && ptr == end && levels >= 1,
                "container attribute 'levels' is not a level count: '" +
                    *attr + "'");
  return levels;
}

GeometryCache GeometryCache::load(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  double* io_seconds) {
  adios::BpReader reader(hierarchy, path);
  const auto levels = container_levels(reader);

  GeometryCache cache;
  double io = 0.0;
  for (std::size_t l = 0; l < levels; ++l) {
    adios::ReadTiming t;
    const auto raw = reader.read_opaque(var, adios::BlockKind::kMesh,
                                        static_cast<std::uint32_t>(l), &t);
    io += t.io_sim_seconds;
    util::ByteReader br(raw);
    cache.meshes.push_back(mesh::TriMesh::deserialize(br));
  }
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    adios::ReadTiming t;
    const auto raw = reader.read_opaque(var, adios::BlockKind::kMapping,
                                        static_cast<std::uint32_t>(l), &t);
    io += t.io_sim_seconds;
    util::ByteReader br(raw);
    cache.mappings.push_back(VertexMapping::deserialize(
        br, cache.meshes[l].vertex_count(), cache.meshes[l + 1].triangle_count()));
  }
  cache.orders.reserve(cache.meshes.size());
  for (const auto& m : cache.meshes) {
    cache.orders.push_back(cached_spatial_order(m));
  }
  if (io_seconds) *io_seconds = io;
  return cache;
}

}  // namespace canopus::core
