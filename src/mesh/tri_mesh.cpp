#include "mesh/tri_mesh.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace canopus::mesh {

TriMesh::TriMesh(std::vector<Vec2> vertices, std::vector<Triangle> triangles)
    : vertices_(std::move(vertices)), triangles_(std::move(triangles)) {
  for (const auto& t : triangles_) {
    for (VertexId v : t.v) {
      CANOPUS_CHECK(v < vertices_.size(), "triangle references missing vertex");
    }
    CANOPUS_CHECK(t.v[0] != t.v[1] && t.v[1] != t.v[2] && t.v[0] != t.v[2],
                  "degenerate triangle (repeated vertex)");
  }
}

namespace {
/// Sorts one edge bucket in place. A bucket holds about twice its vertex's
/// degree, so insertion sort wins except at the hub of a large fan.
void sort_bucket(VertexId* first, std::size_t n) {
  if (n > 16) {
    std::sort(first, first + n);
    return;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const VertexId x = first[i];
    std::size_t k = i;
    for (; k > 0 && first[k - 1] > x; --k) first[k] = first[k - 1];
    first[k] = x;
  }
}
}  // namespace

std::vector<Edge> TriMesh::edges() const {
  // File each triangle edge's larger endpoint under its smaller one (count,
  // prefix-sum, fill), then sort and deduplicate each bucket and emit the
  // buckets in vertex order: ascending (a, b) without a global sort.
  const std::size_t nv = vertices_.size();
  auto for_each_edge = [&](auto&& visit) {
    for (const auto& t : triangles_) {
      visit(t.v[0], t.v[1]);
      visit(t.v[1], t.v[2]);
      visit(t.v[2], t.v[0]);
    }
  };
  std::vector<std::size_t> start(nv + 1, 0);
  for_each_edge([&](VertexId u, VertexId v) { ++start[std::min(u, v) + 1]; });
  for (std::size_t v = 0; v < nv; ++v) start[v + 1] += start[v];
  std::vector<VertexId> larger(start[nv]);
  std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
  for_each_edge([&](VertexId u, VertexId v) {
    larger[cursor[std::min(u, v)]++] = std::max(u, v);
  });
  // Deduplicate each sorted bucket in place; cursor[a] becomes its end.
  std::size_t unique = 0;
  for (VertexId a = 0; a < nv; ++a) {
    VertexId* first = larger.data() + start[a];
    VertexId* last = larger.data() + start[a + 1];
    sort_bucket(first, static_cast<std::size_t>(last - first));
    cursor[a] = start[a] + static_cast<std::size_t>(std::unique(first, last) - first);
    unique += cursor[a] - start[a];
  }
  std::vector<Edge> out;
  out.reserve(unique);
  for (VertexId a = 0; a < nv; ++a) {
    for (std::size_t k = start[a]; k < cursor[a]; ++k) out.emplace_back(a, larger[k]);
  }
  return out;
}

Aabb TriMesh::bounds() const {
  Aabb box;
  if (vertices_.empty()) return box;
  box.lo = box.hi = vertices_[0];
  for (const auto& v : vertices_) box.expand(v);
  return box;
}

double TriMesh::total_area() const {
  double area = 0.0;
  for (const auto& t : triangles_) {
    area += triangle_area(vertices_[t.v[0]], vertices_[t.v[1]], vertices_[t.v[2]]);
  }
  return area;
}

std::vector<Edge> TriMesh::boundary_edges() const {
  std::map<Edge, int> count;
  for (const auto& t : triangles_) {
    ++count[Edge(t.v[0], t.v[1])];
    ++count[Edge(t.v[1], t.v[2])];
    ++count[Edge(t.v[2], t.v[0])];
  }
  std::vector<Edge> out;
  for (const auto& [e, c] : count) {
    if (c == 1) out.push_back(e);
  }
  return out;
}

void TriMesh::serialize(util::ByteWriter& out) const {
  out.put_varint(vertices_.size());
  for (const auto& v : vertices_) {
    out.put(v.x);
    out.put(v.y);
  }
  out.put_varint(triangles_.size());
  for (const auto& t : triangles_) {
    out.put_varint(t.v[0]);
    out.put_varint(t.v[1]);
    out.put_varint(t.v[2]);
  }
}

TriMesh TriMesh::deserialize(util::ByteReader& in) {
  const auto nv = in.get_varint();
  std::vector<Vec2> vertices;
  vertices.reserve(nv);
  for (std::uint64_t i = 0; i < nv; ++i) {
    Vec2 v;
    v.x = in.get<double>();
    v.y = in.get<double>();
    vertices.push_back(v);
  }
  const auto nt = in.get_varint();
  std::vector<Triangle> triangles;
  triangles.reserve(nt);
  for (std::uint64_t i = 0; i < nt; ++i) {
    Triangle t;
    t.v[0] = static_cast<VertexId>(in.get_varint());
    t.v[1] = static_cast<VertexId>(in.get_varint());
    t.v[2] = static_cast<VertexId>(in.get_varint());
    triangles.push_back(t);
  }
  return TriMesh(std::move(vertices), std::move(triangles));
}

namespace {
/// Interleaves the low 16 bits of x and y into a 32-bit Morton key.
std::uint32_t morton(std::uint16_t x, std::uint16_t y) {
  auto spread = [](std::uint32_t v) {
    v &= 0xFFFF;
    v = (v | (v << 8)) & 0x00FF00FF;
    v = (v | (v << 4)) & 0x0F0F0F0F;
    v = (v | (v << 2)) & 0x33333333;
    v = (v | (v << 1)) & 0x55555555;
    return v;
  };
  return spread(x) | (spread(y) << 1);
}
}  // namespace

std::vector<VertexId> spatial_order(const TriMesh& mesh) {
  const auto box = mesh.bounds();
  const double sx = box.width() > 0 ? 65535.0 / box.width() : 0.0;
  const double sy = box.height() > 0 ? 65535.0 / box.height() : 0.0;
  std::vector<std::pair<std::uint32_t, VertexId>> keyed(mesh.vertex_count());
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const auto qx = static_cast<std::uint16_t>((p.x - box.lo.x) * sx);
    const auto qy = static_cast<std::uint16_t>((p.y - box.lo.y) * sy);
    keyed[v] = {morton(qx, qy), v};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<VertexId> order(mesh.vertex_count());
  for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return order;
}

}  // namespace canopus::mesh
