#pragma once
// Immutable unstructured triangular mesh: the data model Canopus refactors.
//
// A TriMesh is the G^l(V^l, E^l) of the paper: vertex positions plus triangle
// connectivity. Edges are derived from triangles. Field values (the L^l data)
// are stored separately as one double per vertex, which lets several
// variables share one mesh.

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/geometry.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::mesh {

using VertexId = std::uint32_t;
using TriangleId = std::uint32_t;
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

struct Triangle {
  std::array<VertexId, 3> v{kInvalidVertex, kInvalidVertex, kInvalidVertex};
  bool operator==(const Triangle&) const = default;
};

/// Undirected edge with canonical ordering a < b.
struct Edge {
  VertexId a = kInvalidVertex;
  VertexId b = kInvalidVertex;
  Edge() = default;
  Edge(VertexId u, VertexId v) : a(u < v ? u : v), b(u < v ? v : u) {}
  bool operator==(const Edge&) const = default;
  auto operator<=>(const Edge&) const = default;
};

class TriMesh {
 public:
  TriMesh() = default;
  TriMesh(std::vector<Vec2> vertices, std::vector<Triangle> triangles);

  std::size_t vertex_count() const { return vertices_.size(); }
  std::size_t triangle_count() const { return triangles_.size(); }

  const std::vector<Vec2>& vertices() const { return vertices_; }
  const std::vector<Triangle>& triangles() const { return triangles_; }
  Vec2 vertex(VertexId v) const { return vertices_[v]; }
  const Triangle& triangle(TriangleId t) const { return triangles_[t]; }

  /// Unique undirected edges in ascending (a, b) order, derived afresh on
  /// every call in one bucketed pass: each triangle edge is filed under its
  /// smaller endpoint and each (small) bucket sorted, so no global sort.
  std::vector<Edge> edges() const;

  /// Bounding box of all vertices (origin box for an empty mesh).
  Aabb bounds() const;

  /// Sum of triangle areas.
  double total_area() const;

  /// Edges that belong to exactly one triangle.
  std::vector<Edge> boundary_edges() const;

  /// Serialization for embedding meshes in BP containers.
  void serialize(util::ByteWriter& out) const;
  static TriMesh deserialize(util::ByteReader& in);

  bool operator==(const TriMesh& o) const {
    return vertices_ == o.vertices_ && triangles_ == o.triangles_;
  }

 private:
  std::vector<Vec2> vertices_;
  std::vector<Triangle> triangles_;
};

/// A scalar field sampled at mesh vertices — the L^l of the paper.
using Field = std::vector<double>;

/// Deterministic spatially coherent vertex ordering (Morton / Z-curve over
/// the mesh bounds). Both the Canopus writer and reader derive it from the
/// geometry alone, so spatially chunked products need no stored permutation:
/// position p in the ordering maps to vertex spatial_order(mesh)[p].
std::vector<VertexId> spatial_order(const TriMesh& mesh);

/// A mesh level paired with its field data.
struct LevelData {
  TriMesh mesh;
  Field values;
};

}  // namespace canopus::mesh
