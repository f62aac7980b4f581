#include "core/geometry_cache.hpp"

#include <charconv>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "adios/bp.hpp"
#include "core/refactorer.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"
#include "util/timer.hpp"

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

adios::WriteTiming write_geometry(adios::BpWriter& writer,
                                  storage::StorageHierarchy& hierarchy,
                                  const std::string& var,
                                  const mesh::Cascade& cascade,
                                  const RefactorConfig& config) {
  CANOPUS_CHECK(cascade.logs.size() + 1 == cascade.level_count(),
                "cascade carries " + std::to_string(cascade.logs.size()) +
                    " collapse logs for " +
                    std::to_string(cascade.level_count()) + " levels");
  adios::WriteTiming total;
  const auto put = [&](adios::BlockKind kind, std::size_t l,
                       const util::ByteWriter& bytes) {
    const auto level = static_cast<std::uint32_t>(l);
    const auto t = writer.write_opaque(var, kind, level, bytes.view(),
                                       tier_hint_for(config, hierarchy, level));
    total.io_sim_seconds += t.io_sim_seconds;
    total.io_wall_seconds += t.io_wall_seconds;
    total.bytes_written += t.bytes_written;
  };
  util::ByteWriter mesh_bytes;
  cascade.levels[0].mesh.serialize(mesh_bytes);
  put(adios::BlockKind::kMesh, 0, mesh_bytes);
  for (std::size_t l = 1; l < cascade.level_count(); ++l) {
    const auto& log = cascade.logs[l - 1];
    util::ByteWriter bytes;
    bytes.put_varint(log.size());
    for (const auto& [i, j] : log) {
      bytes.put_varint(i);
      bytes.put_varint(j);
    }
    put(adios::BlockKind::kCollapseLog, l, bytes);
  }
  return total;
}

util::Bytes read_charged(const adios::BpReader& reader, const std::string& var,
                         adios::BlockKind kind, std::uint32_t level,
                         RetrievalTimings& cost) {
  adios::ReadTiming t;
  try {
    auto raw = reader.read_opaque(var, kind, level, &t);
    cost.charge(t);
    return raw;
  } catch (const storage::StorageError& e) {
    cost.charge(e.charge);
    throw;
  }
}

namespace {

/// Decodes `var`'s level-`level` collapse log in `raw` and replays it on
/// `input`, the level above. Every failure names the block.
mesh::TriMesh replay_block(util::BytesView raw, const mesh::TriMesh& input,
                           const std::string& var, std::uint32_t level) {
  try {
    util::ByteReader br(raw);
    const auto count = br.get_varint();
    // A collapse takes at least one varint byte per slot.
    CANOPUS_CHECK(count <= br.remaining() / 2,
                  std::to_string(count) + " collapses in " +
                      std::to_string(br.remaining()) + " bytes");
    const std::size_t n = input.vertex_count();
    const auto slot = [&] {
      const auto v = br.get_varint();
      CANOPUS_CHECK(v < n, "slot " + std::to_string(v) + " past the " +
                               std::to_string(n) + "-vertex input");
      return static_cast<mesh::VertexId>(v);
    };
    mesh::CollapseLog log(count);
    for (auto& [i, j] : log) {
      i = slot();
      j = slot();
    }
    return mesh::replay_collapses(input, log);
  } catch (const Error& e) {
    throw Error("collapse log block of '" + var + "' at level " +
                std::to_string(level) + ": " + e.what());
  }
}

}  // namespace

GeometryCache GeometryCache::load(const adios::BpReader& reader,
                                  const std::string& var,
                                  RetrievalTimings* cost) {
  util::WallTimer wall;
  RetrievalTimings local;
  RetrievalTimings& charged = cost != nullptr ? *cost : local;
  const auto levels = container_levels(reader);

  GeometryCache cache;
  {
    const auto raw =
        read_charged(reader, var, adios::BlockKind::kMesh, 0, charged);
    util::ByteReader br(raw);
    cache.meshes.push_back(mesh::TriMesh::deserialize(br));
  }
  for (std::uint32_t l = 1; l < levels; ++l) {
    const auto raw =
        read_charged(reader, var, adios::BlockKind::kCollapseLog, l, charged);
    cache.meshes.push_back(replay_block(raw, cache.meshes.back(), var, l));
  }
  for (std::uint32_t l = 0; l + 1 < levels; ++l) {
    const auto raw =
        read_charged(reader, var, adios::BlockKind::kMapping, l, charged);
    util::ByteReader br(raw);
    cache.mappings.push_back(VertexMapping::deserialize(
        br, cache.meshes[l].vertex_count(), cache.meshes[l + 1].triangle_count()));
  }
  cache.orders.reserve(cache.meshes.size());
  for (const auto& m : cache.meshes) {
    cache.orders.push_back(cached_spatial_order(m));
  }
  charged.restore_seconds += wall.seconds();
  return cache;
}

GeometryCache GeometryCache::load(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  RetrievalTimings* cost) {
  return load(adios::BpReader(hierarchy, path), var, cost);
}

}  // namespace canopus::core
