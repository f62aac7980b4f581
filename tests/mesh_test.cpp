// Tests for the mesh substrate: geometry primitives, TriMesh invariants,
// generators, point location, edge-collapse decimation (Algorithm 1), and the
// multi-level cascade.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "core/geometry_cache.hpp"
#include "mesh/cascade.hpp"
#include "mesh/decimate.hpp"
#include "mesh/generators.hpp"
#include "mesh/geometry.hpp"
#include "mesh/mesh_io.hpp"
#include "mesh/point_locator.hpp"
#include "mesh/tri_mesh.hpp"
#include "mesh/validate.hpp"
#include "util/rng.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cu = canopus::util;

namespace {

/// Smooth analytic test field evaluated at mesh vertices.
cm::Field make_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 1.7) * std::cos(p.y * 2.3) + 0.1 * p.x;
  }
  return f;
}

void expect_valid(const cm::TriMesh& mesh, const std::string& context) {
  const auto report = cm::validate(mesh);
  EXPECT_TRUE(report.ok) << context << ": "
                         << (report.problems.empty() ? "?" : report.problems[0]);
}

}  // namespace

// --------------------------------------------------------------- geometry --

TEST(Geometry, SignedAreaOrientation) {
  const cm::Vec2 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_GT(cm::signed_area2(a, b, c), 0.0);  // CCW
  EXPECT_LT(cm::signed_area2(a, c, b), 0.0);  // CW
  EXPECT_DOUBLE_EQ(cm::triangle_area(a, b, c), 0.5);
}

TEST(Geometry, BarycentricAtVerticesAndCentroid) {
  const cm::Vec2 a{0, 0}, b{2, 0}, c{0, 2};
  auto w = cm::barycentric(a, a, b, c);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  w = cm::barycentric(c, a, b, c);
  EXPECT_NEAR(w[2], 1.0, 1e-12);
  const cm::Vec2 centroid = (a + b + c) / 3.0;
  w = cm::barycentric(centroid, a, b, c);
  for (double wi : w) EXPECT_NEAR(wi, 1.0 / 3.0, 1e-12);
}

TEST(Geometry, BarycentricWeightsSumToOne) {
  cu::Rng rng(3);
  const cm::Vec2 a{0.3, 0.1}, b{2.5, 0.4}, c{1.1, 3.3};
  for (int i = 0; i < 100; ++i) {
    const cm::Vec2 p{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const auto w = cm::barycentric(p, a, b, c);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-9);
    // Reconstruction property: p == wa*a + wb*b + wc*c.
    const cm::Vec2 q = a * w[0] + b * w[1] + c * w[2];
    EXPECT_NEAR(q.x, p.x, 1e-9);
    EXPECT_NEAR(q.y, p.y, 1e-9);
  }
}

TEST(Geometry, PointInTriangle) {
  const cm::Vec2 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_TRUE(cm::point_in_triangle({0.25, 0.25}, a, b, c));
  EXPECT_TRUE(cm::point_in_triangle({0.5, 0.5}, a, b, c));  // on edge
  EXPECT_FALSE(cm::point_in_triangle({0.6, 0.6}, a, b, c));
  EXPECT_FALSE(cm::point_in_triangle({-0.1, 0.5}, a, b, c));
}

// ---------------------------------------------------------------- TriMesh --

TEST(TriMesh, BasicCountsAndEdges) {
  // Two triangles sharing an edge: 4 vertices, 5 edges, 2 faces.
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const std::vector<cm::Triangle> tris{{{0, 1, 2}}, {{0, 2, 3}}};
  const cm::TriMesh mesh(verts, tris);
  EXPECT_EQ(mesh.vertex_count(), 4u);
  EXPECT_EQ(mesh.triangle_count(), 2u);
  EXPECT_EQ(mesh.edges().size(), 5u);
  EXPECT_EQ(mesh.boundary_edges().size(), 4u);
  EXPECT_DOUBLE_EQ(mesh.total_area(), 1.0);
}

TEST(TriMesh, RejectsBadTriangles) {
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {1, 1}};
  EXPECT_THROW(cm::TriMesh(verts, {{{0, 1, 5}}}), canopus::Error);
  EXPECT_THROW(cm::TriMesh(verts, {{{0, 1, 1}}}), canopus::Error);
}

// A mesh is stored as a container's kMesh block, which holds it bitwise.
TEST(TriMesh, SerializeRoundTrip) {
  const auto mesh = cm::make_rect_mesh(7, 5, 2.0, 1.0, 0.2, 99);
  EXPECT_TRUE(cc::decode_mesh_block(cc::encode_mesh_block(mesh)) == mesh);
}

// ------------------------------------------------------------- generators --

TEST(Generators, RectMeshStructure) {
  const auto mesh = cm::make_rect_mesh(10, 8, 1.0, 1.0);
  EXPECT_EQ(mesh.vertex_count(), 11u * 9u);
  EXPECT_EQ(mesh.triangle_count(), 10u * 8u * 2u);
  expect_valid(mesh, "rect");
  EXPECT_NEAR(mesh.total_area(), 1.0, 1e-9);
  const auto report = cm::validate(mesh);
  EXPECT_EQ(report.euler_characteristic, 1);  // disk topology
}

TEST(Generators, RectMeshJitterStaysValid) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.3, 5);
  expect_valid(mesh, "jittered rect");
}

TEST(Generators, AnnulusTopology) {
  const auto mesh = cm::make_annulus_mesh(8, 64, 0.5, 1.0);
  expect_valid(mesh, "annulus");
  const auto report = cm::validate(mesh);
  EXPECT_EQ(report.euler_characteristic, 0);  // one hole
  EXPECT_EQ(mesh.vertex_count(), 9u * 64u);
}

TEST(Generators, DiskTopology) {
  const auto mesh = cm::make_disk_mesh(6, 32, 1.0);
  expect_valid(mesh, "disk");
  EXPECT_EQ(cm::validate(mesh).euler_characteristic, 1);
  // Area approaches pi for fine meshes; coarse polygon is smaller.
  EXPECT_NEAR(mesh.total_area(), M_PI, 0.1);
}

TEST(Generators, AirfoilHasHole) {
  const auto mesh =
      cm::make_airfoil_mesh(40, 24, 10.0, 6.0, 4.0, 3.0, 3.0, 1.2);
  expect_valid(mesh, "airfoil");
  EXPECT_EQ(cm::validate(mesh).euler_characteristic, 0);  // body hole
}

TEST(Generators, JitterIsDeterministicPerSeed) {
  const auto a = cm::make_rect_mesh(10, 10, 1.0, 1.0, 0.2, 42);
  const auto b = cm::make_rect_mesh(10, 10, 1.0, 1.0, 0.2, 42);
  const auto c = cm::make_rect_mesh(10, 10, 1.0, 1.0, 0.2, 43);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------- point locator --

TEST(PointLocator, FindsContainingTriangleExactly) {
  const auto mesh = cm::make_rect_mesh(12, 12, 1.0, 1.0, 0.25, 3);
  const cm::PointLocator locator(mesh);
  cu::Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    // Sample random points strictly inside the domain bulk.
    const cm::Vec2 p{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)};
    const auto loc = locator.locate(p);
    ASSERT_TRUE(loc.exact);
    const auto& tri = mesh.triangle(loc.triangle);
    EXPECT_TRUE(cm::point_in_triangle(p, mesh.vertex(tri.v[0]),
                                      mesh.vertex(tri.v[1]),
                                      mesh.vertex(tri.v[2]), 1e-9));
    // Weights reconstruct the point.
    const cm::Vec2 q = mesh.vertex(tri.v[0]) * loc.weights[0] +
                       mesh.vertex(tri.v[1]) * loc.weights[1] +
                       mesh.vertex(tri.v[2]) * loc.weights[2];
    EXPECT_NEAR(q.x, p.x, 1e-9);
    EXPECT_NEAR(q.y, p.y, 1e-9);
  }
}

TEST(PointLocator, MeshVerticesLocateToIncidentTriangle) {
  const auto mesh = cm::make_annulus_mesh(6, 48, 0.5, 1.0, 0.2, 4);
  const cm::PointLocator locator(mesh);
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto loc = locator.locate(mesh.vertex(v));
    const auto& tri = mesh.triangle(loc.triangle);
    const bool incident = tri.v[0] == v || tri.v[1] == v || tri.v[2] == v;
    EXPECT_TRUE(incident || loc.exact);
  }
}

TEST(PointLocator, OutsidePointFallsBackToNearest) {
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  const cm::PointLocator locator(mesh);
  const auto loc = locator.locate({2.0, 2.0});
  EXPECT_FALSE(loc.exact);
  // Clamped weights still form a convex combination.
  EXPECT_NEAR(loc.weights[0] + loc.weights[1] + loc.weights[2], 1.0, 1e-12);
  for (double w : loc.weights) EXPECT_GE(w, 0.0);
}

TEST(PointLocator, InterpolationReproducesLinearField) {
  // A linear field interpolated with barycentric weights is exact.
  const auto mesh = cm::make_rect_mesh(9, 9, 1.0, 1.0, 0.2, 11);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 3.0 * p.x - 2.0 * p.y + 0.5;
  }
  const cm::PointLocator locator(mesh);
  cu::Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const cm::Vec2 p{rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)};
    const auto loc = locator.locate(p);
    const auto& tri = mesh.triangle(loc.triangle);
    const double interp = f[tri.v[0]] * loc.weights[0] +
                          f[tri.v[1]] * loc.weights[1] +
                          f[tri.v[2]] * loc.weights[2];
    EXPECT_NEAR(interp, 3.0 * p.x - 2.0 * p.y + 0.5, 1e-9);
  }
}

// --------------------------------------------------------------- decimate --

TEST(Decimate, ReachesRequestedRatio) {
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.2, 6);
  const auto field = make_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto result = cm::decimate(mesh, field, opt);
  EXPECT_NEAR(result.achieved_ratio, 2.0, 0.1);
  EXPECT_EQ(result.values.size(), result.mesh.vertex_count());
  expect_valid(result.mesh, "decimated rect");
}

TEST(Decimate, AggressiveRatioStaysValid) {
  const auto mesh = cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.15, 2);
  const auto field = make_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 16.0;
  const auto result = cm::decimate(mesh, field, opt);
  EXPECT_GT(result.achieved_ratio, 8.0);
  expect_valid(result.mesh, "16x annulus");
}

TEST(Decimate, PreservesValueRangeApproximately) {
  // Averaging can only contract the value range, never expand it.
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0);
  const auto field = make_field(mesh);
  const auto [lo0, hi0] = std::minmax_element(field.begin(), field.end());
  cm::DecimateOptions opt;
  opt.ratio = 4.0;
  const auto result = cm::decimate(mesh, field, opt);
  const auto [lo1, hi1] =
      std::minmax_element(result.values.begin(), result.values.end());
  EXPECT_GE(*lo1, *lo0 - 1e-12);
  EXPECT_LE(*hi1, *hi0 + 1e-12);
}

TEST(Decimate, ShortestFirstCollapsesShortEdges) {
  // After shortest-first decimation the minimum edge length should grow.
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.3, 17);
  auto min_edge = [](const cm::TriMesh& m) {
    double best = 1e300;
    for (const auto& e : m.edges()) {
      best = std::min(best, cm::distance(m.vertex(e.a), m.vertex(e.b)));
    }
    return best;
  };
  const double before = min_edge(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 4.0;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  EXPECT_GT(min_edge(result.mesh), before);
}

TEST(Decimate, RatioOneIsIdentityLike) {
  const auto mesh = cm::make_rect_mesh(10, 10, 1.0, 1.0);
  cm::DecimateOptions opt;
  opt.ratio = 1.0;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  EXPECT_EQ(result.mesh.vertex_count(), mesh.vertex_count());
  EXPECT_EQ(result.collapses, 0u);
}

TEST(Decimate, FieldSizeMismatchThrows) {
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  cm::Field wrong(3, 0.0);
  EXPECT_THROW(cm::decimate(mesh, wrong, {}), canopus::Error);
}

TEST(Decimate, RandomPriorityStillValid) {
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0, 0.2, 31);
  cm::DecimateOptions opt;
  opt.ratio = 4.0;
  opt.priority = cm::EdgePriority::kRandom;
  opt.seed = 77;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  expect_valid(result.mesh, "random priority");
  EXPECT_GT(result.achieved_ratio, 3.0);
}

TEST(Decimate, GradientPriorityKeepsHighGradientRegions) {
  // Field with a sharp bump at the center: gradient-aware decimation should
  // keep more vertices near the bump than plain shortest-edge decimation.
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double r2 = (p.x - 0.5) * (p.x - 0.5) + (p.y - 0.5) * (p.y - 0.5);
    f[v] = std::exp(-r2 / 0.002);
  }
  auto near_bump_count = [](const cm::TriMesh& m) {
    std::size_t n = 0;
    for (cm::VertexId v = 0; v < m.vertex_count(); ++v) {
      const auto p = m.vertex(v);
      if (std::abs(p.x - 0.5) < 0.12 && std::abs(p.y - 0.5) < 0.12) ++n;
    }
    return n;
  };
  cm::DecimateOptions plain;
  plain.ratio = 6.0;
  cm::DecimateOptions grad = plain;
  grad.priority = cm::EdgePriority::kGradientWeighted;
  grad.gradient_weight = 40.0;
  const auto rp = cm::decimate(mesh, f, plain);
  const auto rg = cm::decimate(mesh, f, grad);
  EXPECT_GE(near_bump_count(rg.mesh), near_bump_count(rp.mesh));
}

// ---------------------------------------------------------------- cascade --

TEST(Cascade, BuildsRequestedLevels) {
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  cm::CascadeOptions opt;
  opt.levels = 4;
  const auto cascade = cm::build_cascade(mesh, make_field(mesh), opt);
  ASSERT_EQ(cascade.level_count(), 4u);
  EXPECT_EQ(cascade.levels[0].mesh.vertex_count(), mesh.vertex_count());
  for (std::size_t l = 1; l < 4; ++l) {
    expect_valid(cascade.levels[l].mesh, "cascade level " + std::to_string(l));
    // Each level roughly halves the previous.
    const double step = static_cast<double>(cascade.levels[l - 1].mesh.vertex_count()) /
                        static_cast<double>(cascade.levels[l].mesh.vertex_count());
    EXPECT_NEAR(step, 2.0, 0.25) << "level " << l;
  }
  EXPECT_NEAR(cascade.decimation_ratio(3), 8.0, 1.5);
}

TEST(Cascade, PassStatsReported) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0);
  std::vector<cm::DecimateResult> stats;
  cm::CascadeOptions opt;
  opt.levels = 3;
  cm::build_cascade(mesh, make_field(mesh), opt, &stats);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].collapses, 0u);
}

// ------------------------------------------------------- collapse replay --

TEST(CollapseReplay, RebuildsEveryPassBitwiseAtExactSize) {
  for (const auto priority : {cm::EdgePriority::kShortestFirst,
                              cm::EdgePriority::kRandom,
                              cm::EdgePriority::kGradientWeighted}) {
    SCOPED_TRACE(static_cast<int>(priority));
    const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
    cm::CascadeOptions opt;
    opt.levels = 4;
    opt.decimate.priority = priority;
    const auto cascade = cm::build_cascade(mesh, make_field(mesh), opt);
    ASSERT_EQ(cascade.logs.size(), 3u);
    for (std::size_t l = 0; l + 1 < cascade.level_count(); ++l) {
      const auto replayed =
          cm::replay_collapses(cascade.levels[l].mesh, cascade.logs[l]);
      EXPECT_TRUE(replayed == cascade.levels[l + 1].mesh) << "pass " << l;
      EXPECT_EQ(replayed.vertices().capacity(), replayed.vertex_count());
      EXPECT_EQ(replayed.triangles().capacity(), replayed.triangle_count());
    }
  }
}

TEST(CollapseReplay, RejectsLogsThatCannotComeFromTheInput) {
  const auto mesh = cm::make_rect_mesh(6, 6, 1.0, 1.0);
  const auto n = static_cast<cm::VertexId>(mesh.vertex_count());
  const std::vector<cm::CollapseLog> bad = {
      {{0, n}},            // slot past the input
      {{n, 0}},            // survivor past the input
      {{3, 3}},            // collapsed into itself
      {{0, 1}, {2, 1}},    // collapsed twice
      {{0, 1}, {1, 2}},    // survivor used after it died
  };
  for (const auto& log : bad) {
    EXPECT_THROW(cm::replay_collapses(mesh, log), canopus::Error);
  }
  // An empty log is the identity.
  EXPECT_TRUE(cm::replay_collapses(mesh, {}) == mesh);
}

TEST(Cascade, SingleLevelIsOriginal) {
  const auto mesh = cm::make_rect_mesh(5, 5, 1.0, 1.0);
  cm::CascadeOptions opt;
  opt.levels = 1;
  const auto cascade = cm::build_cascade(mesh, make_field(mesh), opt);
  EXPECT_EQ(cascade.level_count(), 1u);
  EXPECT_TRUE(cascade.base().mesh == mesh);
}

// ---------------------------------------------------------------- mesh IO --

TEST(MeshIo, OffRoundTrip) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "canopus_mesh_test.off").string();
  const auto mesh = cm::make_disk_mesh(4, 16, 2.0, 0.1, 12);
  cm::save_off(mesh, path);
  const auto loaded = cm::load_off(path);
  EXPECT_EQ(loaded.vertex_count(), mesh.vertex_count());
  EXPECT_EQ(loaded.triangle_count(), mesh.triangle_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_NEAR(loaded.vertex(v).x, mesh.vertex(v).x, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(MeshIo, LoadMissingFileThrows) {
  EXPECT_THROW(cm::load_off("/nonexistent/path.off"), canopus::Error);
}

// ---------------------------------------------------------------- quality --

#include "mesh/quality.hpp"

TEST(Quality, RightIsoscelesGridAngles) {
  // A structured rect mesh splits squares into right isosceles triangles:
  // every min angle is exactly 45 degrees, aspect ratio sqrt(2)/... bounded.
  const auto mesh = cm::make_rect_mesh(8, 8, 1.0, 1.0);
  const auto q = cm::quality_stats(mesh);
  EXPECT_NEAR(q.min_angle_deg, 45.0, 1e-9);
  EXPECT_NEAR(q.mean_min_angle_deg, 45.0, 1e-9);
  EXPECT_EQ(q.sliver_count, 0u);
  EXPECT_LT(q.max_aspect_ratio, 2.01);
}

TEST(Quality, DetectsSlivers) {
  // One nearly-degenerate triangle.
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {0.5, 0.001}};
  const cm::TriMesh mesh(verts, {{{0, 1, 2}}});
  const auto q = cm::quality_stats(mesh);
  EXPECT_LT(q.min_angle_deg, 1.0);
  EXPECT_EQ(q.sliver_count, 1u);
  EXPECT_GT(q.max_aspect_ratio, 100.0);
}

TEST(Quality, DecimationKeepsAnglesBounded) {
  // The link-condition + orientation guards must prevent decimation from
  // collapsing a healthy mesh into slivers, even at a deep ratio.
  const auto mesh = cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.15, 2);
  cm::DecimateOptions opt;
  opt.ratio = 16.0;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  const auto q = cm::quality_stats(result.mesh);
  EXPECT_GT(q.min_angle_deg, 2.0);
  EXPECT_GT(q.mean_min_angle_deg, 25.0);
  EXPECT_EQ(q.sliver_count, 0u);
}

TEST(Quality, EmptyMeshThrows) {
  const cm::TriMesh empty;
  EXPECT_THROW(cm::quality_stats(empty), canopus::Error);
}
