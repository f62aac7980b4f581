#include "core/geometry_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "adios/bp.hpp"
#include "compress/fpc.hpp"
#include "compress/huffman.hpp"
#include "core/delta.hpp"
#include "core/refactorer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/bitstream.hpp"
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

mesh::Field unpermute(const mesh::Field& stored,
                      const std::vector<mesh::VertexId>& order,
                      util::ThreadPool& pool) {
  CANOPUS_CHECK(stored.size() == order.size(),
                "chunked delta size inconsistent with its mesh");
  mesh::Field delta(stored.size());
  pool.parallel_for(
      0, order.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pos = lo; pos < hi; ++pos) {
          delta[order[pos]] = stored[pos];
        }
      },
      /*grain=*/4096);
  return delta;
}

namespace {

// Corner symbols of the kMesh block (layout in the header).
constexpr std::uint8_t kNewRank = 0;
constexpr std::uint8_t kPrevCorner = 1;   // 1..3: corner k of the previous triangle
constexpr std::uint8_t kRecentSlot = 4;   // 4..11: a slot of the recent list
constexpr std::uint8_t kDistance = 12;    // newest rank - rank, in the side stream
constexpr std::uint32_t kRecentSlots = 8;

/// Bits per permutation id: ceil(log2 n), 0 for n <= 1.
unsigned id_bits(std::uint64_t n) {
  return n > 1 ? static_cast<unsigned>(std::bit_width(n - 1)) : 0;
}

/// The most-recently-used list of ranks, most recent in slot 0.
struct RecentRanks {
  std::array<mesh::VertexId, kRecentSlots> slot{};
  std::uint32_t size = 0;

  /// The slot holding `rank`, or size when it is not listed.
  std::uint32_t find(mesh::VertexId rank) const {
    std::uint32_t at = 0;
    while (at < size && slot[at] != rank) ++at;
    return at;
  }
  /// Moves `rank`, listed in slot `at` (at == size: not listed), to slot 0.
  /// A rank new to a full list pushes the least recent one out.
  void promote(mesh::VertexId rank, std::uint32_t at) {
    if (at == size) {
      if (size < kRecentSlots) ++size;
      at = size - 1;
    }
    for (; at > 0; --at) slot[at] = slot[at - 1];
    slot[0] = rank;
  }
};

void put_section(util::ByteWriter& out, util::BytesView bytes) {
  out.put_varint(bytes.size());
  out.put_bytes(bytes);
}

/// The next length-prefixed section of `in`.
util::BytesView get_section(util::ByteReader& in, const char* what) {
  const auto len = in.get_varint();
  CANOPUS_CHECK(len <= in.remaining(),
                std::string(what) + " section of " + std::to_string(len) +
                    " bytes in " + std::to_string(in.remaining()));
  return in.get_bytes(len);
}

/// One coordinate of every vertex, in rank order.
std::vector<double> rank_coordinates(const mesh::TriMesh& m,
                                     const std::vector<mesh::VertexId>& perm,
                                     double mesh::Vec2::*axis) {
  std::vector<double> out(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) out[k] = m.vertex(perm[k]).*axis;
  return out;
}

}  // namespace

util::Bytes encode_mesh_block(const mesh::TriMesh& m) {
  const std::size_t n = m.vertex_count();
  const std::size_t T = m.triangle_count();
  // Ranks by first use in triangle order; unreferenced vertices last.
  std::vector<mesh::VertexId> rank(n, mesh::kInvalidVertex);
  std::vector<mesh::VertexId> perm;  // rank -> vertex id
  perm.reserve(n);
  const auto assign = [&](mesh::VertexId v) {
    if (rank[v] == mesh::kInvalidVertex) {
      rank[v] = static_cast<mesh::VertexId>(perm.size());
      perm.push_back(v);
    }
  };
  for (const auto& t : m.triangles()) {
    for (const auto v : t.v) assign(v);
  }
  for (mesh::VertexId v = 0; v < n; ++v) assign(v);

  util::ByteWriter out;
  out.put_varint(n);
  out.put_varint(T);
  util::BitWriter ids;
  const unsigned width = id_bits(n);
  for (const auto v : perm) ids.write_bits(v, width);
  out.put_bytes(ids.finish());

  util::Bytes symbols(3 * T);
  util::ByteWriter distances;
  RecentRanks recent;
  std::array<mesh::VertexId, 3> prev{};
  mesh::VertexId next = 0;  // the rank the next new vertex gets
  for (std::size_t t = 0; t < T; ++t) {
    std::array<mesh::VertexId, 3> cur{};
    for (std::size_t c = 0; c < 3; ++c) {
      const mesh::VertexId r = rank[m.triangle(static_cast<mesh::TriangleId>(t)).v[c]];
      std::uint32_t symbol = kNewRank;
      std::uint32_t at = recent.size;
      if (r == next) {
        ++next;
      } else {
        at = recent.find(r);
        const auto k = t > 0 ? std::find(prev.begin(), prev.end(), r) - prev.begin() : 3;
        if (k < 3) {
          symbol = kPrevCorner + static_cast<std::uint32_t>(k);
        } else if (at < recent.size) {
          symbol = kRecentSlot + at;
        } else {
          symbol = kDistance;
          distances.put_varint(next - 1 - r);
        }
      }
      symbols[3 * t + c] = static_cast<std::byte>(symbol);
      recent.promote(r, at);
      cur[c] = r;
    }
    prev = cur;
  }
  put_section(out, compress::huffman_encode(symbols));
  put_section(out, compress::huffman_encode(distances.view()));
  compress::FpcTables tables;  // one pair for both coordinate streams
  for (double mesh::Vec2::*axis : {&mesh::Vec2::x, &mesh::Vec2::y}) {
    put_section(out, compress::fpc_encode(rank_coordinates(m, perm, axis), tables));
  }
  out.put(util::Crc32::compute(out.view()));
  return out.take();
}

namespace {

/// A kMesh block's bytes before its CRC, once the CRC matches them.
util::BytesView checked_body(util::BytesView block) {
  CANOPUS_CHECK(block.size() >= sizeof(std::uint32_t),
                std::to_string(block.size()) + " bytes");
  const auto body = block.first(block.size() - sizeof(std::uint32_t));
  std::uint32_t crc = 0;
  std::memcpy(&crc, block.data() + body.size(), sizeof crc);
  CANOPUS_CHECK(util::Crc32::compute(body) == crc, "checksum mismatch");
  return body;
}

/// The first sections of a kMesh block body: the counts, the permutation
/// and the triangles the corner and distance streams give, read from `in`
/// up to the coordinate streams.
struct Connectivity {
  std::vector<mesh::VertexId> perm;  // rank -> vertex id
  std::vector<mesh::Triangle> triangles;
};

Connectivity read_connectivity(util::ByteReader& in) {
  const auto n = in.get_varint();
  const auto T = in.get_varint();
  const unsigned width = id_bits(n);
  CANOPUS_CHECK(n < mesh::kInvalidVertex &&
                    (width == 0 || n <= in.remaining() * 8 / width),
                std::to_string(n) + " vertices in " +
                    std::to_string(in.remaining()) + " bytes");
  Connectivity out;
  auto& perm = out.perm;
  perm.resize(n);
  {
    const auto words = (n * width + 63) / 64;
    util::BitReader ids(in.get_bytes(words * sizeof(std::uint64_t)));
    std::vector<bool> seen(n);
    for (auto& v : perm) {
      const auto id = ids.read_bits(width);
      CANOPUS_CHECK(id < n && !seen[id],
                    "permutation id " + std::to_string(id) +
                        (id < n ? " repeats" : " past " + std::to_string(n)));
      seen[id] = true;
      v = static_cast<mesh::VertexId>(id);
    }
  }

  const auto symbol_bytes = get_section(in, "corner");
  // A Huffman code takes at least one bit per symbol.
  CANOPUS_CHECK(T <= symbol_bytes.size() * 8 / 3,
                std::to_string(T) + " triangles in a " +
                    std::to_string(symbol_bytes.size()) + "-byte corner section");
  const auto symbols = compress::huffman_decode(symbol_bytes);
  CANOPUS_CHECK(symbols.size() == 3 * T,
                std::to_string(symbols.size()) + " corner symbols for " +
                    std::to_string(T) + " triangles");
  const auto distance_bytes = compress::huffman_decode(get_section(in, "distance"));
  util::ByteReader distances(distance_bytes);

  auto& triangles = out.triangles;
  triangles.resize(T);
  RecentRanks recent;
  std::array<mesh::VertexId, 3> prev{};
  mesh::VertexId next = 0;
  for (std::size_t t = 0; t < T; ++t) {
    std::array<mesh::VertexId, 3> cur{};
    for (std::size_t c = 0; c < 3; ++c) {
      const auto symbol = static_cast<std::uint8_t>(symbols[3 * t + c]);
      mesh::VertexId r = 0;
      std::uint32_t at = recent.size;
      if (symbol == kNewRank) {
        CANOPUS_CHECK(next < n, "more new vertices than the " +
                                    std::to_string(n) + " of the block");
        r = next++;
      } else if (symbol < kRecentSlot) {
        CANOPUS_CHECK(t > 0, "previous-triangle corner on triangle 0");
        r = prev[symbol - kPrevCorner];
        at = recent.find(r);
      } else if (symbol < kDistance) {
        at = symbol - kRecentSlot;
        CANOPUS_CHECK(at < recent.size,
                      "recent slot " + std::to_string(at) + " of " +
                          std::to_string(recent.size) + " filled");
        r = recent.slot[at];
      } else {
        CANOPUS_CHECK(symbol == kDistance,
                      "corner symbol " + std::to_string(symbol));
        const auto d = distances.get_varint();
        CANOPUS_CHECK(d < next, "distance " + std::to_string(d) +
                                    " past the newest rank " +
                                    std::to_string(next) + " - 1");
        r = static_cast<mesh::VertexId>(next - 1 - d);
        at = recent.find(r);
      }
      recent.promote(r, at);
      cur[c] = r;
      triangles[t].v[c] = perm[r];
    }
    prev = cur;
  }
  CANOPUS_CHECK(distances.exhausted(), "distance stream longer than its corners");
  return out;
}

/// The coordinate streams that end a kMesh block body, read from `in`, as
/// positions in vertex id order (`perm` maps ranks to ids).
std::vector<mesh::Vec2> read_positions(util::ByteReader& in,
                                       const std::vector<mesh::VertexId>& perm) {
  const std::size_t n = perm.size();
  std::vector<mesh::Vec2> vertices(n);
  compress::FpcTables tables;  // one pair for both coordinate streams
  for (double mesh::Vec2::*axis : {&mesh::Vec2::x, &mesh::Vec2::y}) {
    const auto coords = compress::fpc_decode(get_section(in, "coordinate"), tables);
    CANOPUS_CHECK(coords.size() == n,
                  "coordinate stream of " + std::to_string(coords.size()) +
                      " values for " + std::to_string(n) + " vertices");
    for (std::size_t k = 0; k < n; ++k) vertices[perm[k]].*axis = coords[k];
  }
  CANOPUS_CHECK(in.exhausted(), std::to_string(in.remaining()) +
                                    " bytes after the coordinates");
  return vertices;
}

}  // namespace

mesh::TriMesh decode_mesh_block(util::BytesView block) {
  util::ByteReader in(checked_body(block));
  auto connectivity = read_connectivity(in);
  auto vertices = read_positions(in, connectivity.perm);
  return mesh::TriMesh(std::move(vertices), std::move(connectivity.triangles));
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
                       util::BytesView bytes) {
    const auto level = static_cast<std::uint32_t>(l);
    const auto t = writer.write_opaque(var, kind, level, bytes,
                                       tier_hint_for(config, hierarchy, level));
    total.io_sim_seconds += t.io_sim_seconds;
    total.io_wall_seconds += t.io_wall_seconds;
    total.bytes_written += t.bytes_written;
  };
  put(adios::BlockKind::kMesh, 0, encode_mesh_block(cascade.levels[0].mesh));
  for (std::size_t l = 1; l < cascade.level_count(); ++l) {
    const auto& log = cascade.logs[l - 1];
    util::ByteWriter bytes;
    bytes.put_varint(log.size());
    for (const auto& [i, j] : log) {
      bytes.put_varint(i);
      bytes.put_varint(j);
    }
    put(adios::BlockKind::kCollapseLog, l, bytes.view());
  }
  return total;
}

util::Bytes read_charged(const adios::BpReader& reader, const std::string& var,
                         adios::BlockKind kind, std::uint32_t level,
                         RetrievalTimings& cost, storage::Admission admission) {
  adios::ReadTiming t;
  try {
    auto raw = reader.read_opaque(var, kind, level, &t, admission);
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

struct GeometryCache::Level0 {
  std::once_flag decoded;
  /// The kMesh block's leading bytes through its distance section, which
  /// read_connectivity decodes; emptied by the decode.
  util::Bytes connectivity;
  mesh::TriMesh mesh;  // set by the decode
};

const mesh::TriMesh& GeometryCache::mesh(std::size_t level) const {
  if (level > 0) return levels_[level];
  Level0& l0 = *level0_;
  std::call_once(l0.decoded, [&] {
    CANOPUS_SPAN("geometry.level0_triangles",
                 {{"bytes", l0.connectivity.size()}});
    util::ByteReader in(l0.connectivity);
    auto connectivity = read_connectivity(in);
    CANOPUS_CHECK(in.exhausted() && connectivity.perm.size() == vertex_count(0),
                  "kept level-0 connectivity does not match its positions");
    l0.mesh = mesh::TriMesh(levels_[0].shared_vertices(),
                            std::move(connectivity.triangles));
    util::Bytes().swap(l0.connectivity);
    obs::MetricsRegistry::global().counter("geometry.level0_decodes").add(1);
  });
  return l0.mesh;
}

GeometryCache GeometryCache::load(const adios::BpReader& reader,
                                  const std::string& var,
                                  RetrievalTimings* cost,
                                  storage::Admission admission,
                                  util::ThreadPool* pool) {
  util::WallTimer wall;
  RetrievalTimings local;
  RetrievalTimings& charged = cost != nullptr ? *cost : local;
  const auto levels = container_levels(reader);

  GeometryCache cache;
  cache.level0_ = std::make_shared<Level0>();
  mesh::TriMesh finest;  // level 0 with its triangles, until the replay ends
  {
    const auto raw =
        read_charged(reader, var, adios::BlockKind::kMesh, 0, charged,
                     admission);
    try {
      util::ByteReader in(checked_body(raw));
      auto connectivity = read_connectivity(in);
      cache.level0_->connectivity.assign(
          raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(in.position()));
      auto vertices = read_positions(in, connectivity.perm);
      finest = mesh::TriMesh(std::move(vertices),
                             std::move(connectivity.triangles));
    } catch (const Error& e) {
      throw Error("mesh block of '" + var + "' at level 0: " + e.what());
    }
  }
  cache.levels_.push_back(mesh::TriMesh(finest.shared_vertices(), {}));
  for (std::uint32_t l = 1; l < levels; ++l) {
    const auto raw =
        read_charged(reader, var, adios::BlockKind::kCollapseLog, l, charged,
                     admission);
    cache.levels_.push_back(
        replay_block(raw, l == 1 ? finest : cache.levels_.back(), var, l));
  }
  finest = mesh::TriMesh();  // frees level 0's triangles
  // The writer's own function over meshes bitwise equal to its cascade, so
  // the mappings are the ones the deltas were taken with. Point location
  // throws on geometry no writer produces (a vertex whose distance to every
  // coarse triangle is not finite).
  cache.mappings.reserve(levels - 1);
  for (std::uint32_t l = 0; l + 1 < levels; ++l) {
    try {
      cache.mappings.push_back(
          build_mapping(cache.levels_[l], cache.levels_[l + 1], pool));
    } catch (const Error& e) {
      throw Error("mapping of '" + var + "' at level " + std::to_string(l) +
                  ": " + e.what());
    }
  }
  cache.orders.reserve(levels);
  for (const auto& m : cache.levels_) {
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
