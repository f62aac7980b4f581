#pragma once
// Immutable unstructured triangular mesh: the data model Canopus refactors.
//
// A TriMesh is the G^l(V^l, E^l) of the paper: vertex positions plus triangle
// connectivity. Edges are derived from triangles. Field values (the L^l data)
// are stored separately as one double per vertex, which lets several
// variables share one mesh.
//
// The vertex and triangle arrays are immutable and shared: copying a TriMesh
// is O(1), and a copy reads its source's arrays.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mesh/geometry.hpp"

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
  using SharedVertices = std::shared_ptr<const std::vector<Vec2>>;

  TriMesh();
  TriMesh(std::vector<Vec2> vertices, std::vector<Triangle> triangles);
  /// A mesh over an existing vertex array, which it shares (not null).
  TriMesh(SharedVertices vertices, std::vector<Triangle> triangles);

  // Copies share the arrays. A move copies too, so a moved-from mesh stays
  // the mesh it was rather than one whose arrays are gone.
  TriMesh(const TriMesh&) = default;
  TriMesh& operator=(const TriMesh&) = default;

  std::size_t vertex_count() const { return vertex_count_; }
  std::size_t triangle_count() const { return triangle_count_; }

  const std::vector<Vec2>& vertices() const { return *vertices_; }
  const std::vector<Triangle>& triangles() const { return *triangles_; }
  Vec2 vertex(VertexId v) const { return vertex_data_[v]; }
  const Triangle& triangle(TriangleId t) const { return triangle_data_[t]; }
  /// The vertex array, for building another mesh over the same positions.
  const SharedVertices& shared_vertices() const { return vertices_; }

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

  /// Equal contents, whether or not the arrays are shared.
  bool operator==(const TriMesh& o) const {
    return vertices() == o.vertices() && triangles() == o.triangles();
  }

 private:
  SharedVertices vertices_;
  std::shared_ptr<const std::vector<Triangle>> triangles_;
  // The arrays' data and sizes, cached so the hot accessors above read them
  // without going through the shared pointers.
  const Vec2* vertex_data_ = nullptr;
  const Triangle* triangle_data_ = nullptr;
  std::size_t vertex_count_ = 0;
  std::size_t triangle_count_ = 0;
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
