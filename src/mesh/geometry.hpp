#pragma once
// 2-D geometric primitives for the unstructured-triangular-mesh data model.
//
// Canopus evaluates on 2-D planes of simulation data (XGC1 dpot planes,
// GenASiS slices, CFD surfaces), so the mesh substrate is planar; the field
// values living on the mesh are the third dimension.

#include <array>
#include <cmath>

namespace canopus::mesh {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  Vec2 operator*(double s) const { return {x * s, y * s}; }
  Vec2 operator/(double s) const { return {x / s, y / s}; }
  Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  bool operator==(const Vec2&) const = default;

  /// z-component of the 3-D cross product; >0 means `o` is CCW from *this.
  double cross(Vec2 o) const { return x * o.y - y * o.x; }
  double norm2() const { return x * x + y * y; }
  double norm() const { return std::sqrt(norm2()); }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// Twice the signed area of triangle (a, b, c); positive when CCW.
inline double signed_area2(Vec2 a, Vec2 b, Vec2 c) {
  return (b - a).cross(c - a);
}

inline double triangle_area(Vec2 a, Vec2 b, Vec2 c) {
  return std::abs(signed_area2(a, b, c)) * 0.5;
}

/// Barycentric coordinates (wa, wb, wc) of p with respect to triangle
/// (a, b, c); they sum to 1. Degenerate triangles yield (1, 0, 0).
inline std::array<double, 3> barycentric(Vec2 p, Vec2 a, Vec2 b, Vec2 c) {
  const double denom = signed_area2(a, b, c);
  if (denom == 0.0) return {1.0, 0.0, 0.0};
  const double wa = signed_area2(p, b, c) / denom;
  const double wb = signed_area2(a, p, c) / denom;
  const double wc = 1.0 - wa - wb;
  return {wa, wb, wc};
}

/// True if p lies inside or on the boundary of triangle (a, b, c), with an
/// epsilon slack to absorb floating-point noise at shared edges.
inline bool point_in_triangle(Vec2 p, Vec2 a, Vec2 b, Vec2 c, double eps = 1e-12) {
  const auto w = barycentric(p, a, b, c);
  return w[0] >= -eps && w[1] >= -eps && w[2] >= -eps;
}

/// Axis-aligned bounding box.
struct Aabb {
  Vec2 lo{0.0, 0.0};
  Vec2 hi{0.0, 0.0};

  void expand(Vec2 p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  double width() const { return hi.x - lo.x; }
  double height() const { return hi.y - lo.y; }
};

}  // namespace canopus::mesh
