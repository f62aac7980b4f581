// Parameterized property sweeps over the core invariants:
//   - decimation keeps meshes valid across mesh families, ratios, priorities
//   - lossy codecs honor every error bound on every signal family
//   - delta/restore is an exact inverse for every estimate mode and level
//   - point location answers bit for bit as the linear-scan reference
//   - refactor -> read round trips stay within the accumulated budget
//     across datasets, estimate modes and placement layouts

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <queue>
#include <tuple>
#include <vector>

#include "compress/codec.hpp"
#include "core/canopus.hpp"
#include "mesh/cascade.hpp"
#include "mesh/generators.hpp"
#include "mesh/point_locator.hpp"
#include "mesh/validate.hpp"
#include "sim/datasets.hpp"
#include "storage/blob_frame.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cp = canopus::compress;
namespace cs = canopus::storage;
namespace cu = canopus::util;

namespace {

/// `jittered = false` keeps the family's structured layout, whose many
/// equal edge lengths tie in the decimator's priority queue.
cm::TriMesh make_mesh(const std::string& family, bool jittered = true) {
  const double j = jittered ? 1.0 : 0.0;
  if (family == "rect") return cm::make_rect_mesh(28, 28, 1.0, 1.0, 0.2 * j, 11);
  if (family == "annulus") {
    return cm::make_annulus_mesh(12, 64, 0.5, 1.0, 0.15 * j, 11);
  }
  if (family == "disk") return cm::make_disk_mesh(12, 56, 1.0, 0.15 * j, 11);
  if (family == "airfoil") {
    return cm::make_airfoil_mesh(36, 24, 10.0, 6.0, 3.5, 3.0, 2.2, 0.8, 0.1 * j, 11);
  }
  if (family == "shuffled") {
    return cm::shuffle_vertices(cm::make_rect_mesh(28, 28, 1.0, 1.0, 0.2 * j, 11), 5);
  }
  throw canopus::Error("unknown mesh family " + family);
}

cm::Field analytic_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(1.3 * p.x) * std::cos(2.1 * p.y) +
           0.5 * std::exp(-((p.x - 0.4) * (p.x - 0.4) + p.y * p.y) / 0.05);
  }
  return f;
}

std::string priority_suffix(cm::EdgePriority priority) {
  switch (priority) {
    case cm::EdgePriority::kShortestFirst: return "_short";
    case cm::EdgePriority::kRandom: return "_rand";
    case cm::EdgePriority::kGradientWeighted: return "_grad";
  }
  return "_unknown";
}

std::vector<double> make_signal(const std::string& family, std::size_t n) {
  cu::Rng rng(n + 13);
  std::vector<double> xs(n);
  if (family == "smooth") {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = 25.0 * std::sin(static_cast<double>(i) * 0.004);
    }
  } else if (family == "noisy") {
    for (auto& x : xs) x = rng.normal(0.0, 10.0);
  } else if (family == "spiky") {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = (i % 97 == 0) ? rng.uniform(-1e6, 1e6) : rng.normal(0.0, 0.01);
    }
  } else if (family == "steps") {
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 500 == 0) level = rng.uniform(-100.0, 100.0);
      xs[i] = level;
    }
  } else if (family == "tiny") {
    for (auto& x : xs) x = rng.normal(0.0, 1e-12);
  }
  return xs;
}

}  // namespace

// -------------------------------------------------------------- decimation --

class DecimationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, double, cm::EdgePriority>> {};

TEST_P(DecimationSweep, MeshStaysValidAndRatioApproached) {
  const auto& [family, ratio, priority] = GetParam();
  const auto mesh = make_mesh(family);
  const auto field = analytic_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = ratio;
  opt.priority = priority;
  const auto result = cm::decimate(mesh, field, opt);

  const auto report = cm::validate(result.mesh);
  EXPECT_TRUE(report.ok) << family << " r=" << ratio << ": "
                         << (report.problems.empty() ? "" : report.problems[0]);
  EXPECT_EQ(result.values.size(), result.mesh.vertex_count());
  // Within 25% of the requested ratio (rejections may leave slack at deep
  // ratios on small meshes) and never overshooting into a degenerate mesh.
  EXPECT_GE(result.achieved_ratio, ratio * 0.75);
  EXPECT_GE(result.mesh.vertex_count(), 3u);
  // Averaging never expands the value range.
  const auto [lo0, hi0] = std::minmax_element(field.begin(), field.end());
  const auto [lo1, hi1] =
      std::minmax_element(result.values.begin(), result.values.end());
  EXPECT_GE(*lo1, *lo0 - 1e-12);
  EXPECT_LE(*hi1, *hi0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesRatiosPriorities, DecimationSweep,
    ::testing::Combine(
        ::testing::Values("rect", "annulus", "disk", "airfoil", "shuffled"),
        ::testing::Values(2.0, 4.0, 8.0),
        ::testing::Values(cm::EdgePriority::kShortestFirst,
                          cm::EdgePriority::kRandom,
                          cm::EdgePriority::kGradientWeighted)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param))) +
             priority_suffix(std::get<2>(param_info.param));
    });

// ---------------------------------------------------- decimation equivalence --

namespace canopus::mesh {
namespace {

/// Unique undirected edges by one global sort of every triangle edge, as
/// TriMesh::edges() derived them before it bucketed them per vertex.
std::vector<Edge> reference_edges(const TriMesh& mesh) {
  std::vector<Edge> edges;
  edges.reserve(mesh.triangle_count() * 3);
  for (const auto& t : mesh.triangles()) {
    edges.emplace_back(t.v[0], t.v[1]);
    edges.emplace_back(t.v[1], t.v[2]);
    edges.emplace_back(t.v[2], t.v[0]);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// The decimator as it was before its lists moved into arenas: one
// std::vector per vertex for adjacency and incidence, std::vector<bool>
// flags, edges from reference_edges. Kept verbatim as the reference the
// decimator must match bit for bit, ties in priority included.

/// Mutable mesh scratch state for the collapse loop. Vertex slot `i` survives
/// a collapse of edge (i, j) and is moved to the midpoint; slot `j` dies.
struct Workspace {
  std::vector<Vec2> pos;
  std::vector<double> val;
  std::vector<bool> vertex_alive;
  std::vector<std::vector<VertexId>> nbr;        // adjacent alive vertices
  std::vector<Triangle> tris;
  std::vector<bool> tri_alive;
  std::vector<std::vector<TriangleId>> inc;      // incident alive triangles
  std::vector<std::uint32_t> version;            // bumped on any change at v

  static void list_insert(std::vector<VertexId>& xs, VertexId v) {
    if (std::find(xs.begin(), xs.end(), v) == xs.end()) xs.push_back(v);
  }
  static void list_erase(std::vector<VertexId>& xs, VertexId v) {
    auto it = std::find(xs.begin(), xs.end(), v);
    if (it != xs.end()) {
      *it = xs.back();
      xs.pop_back();
    }
  }
  static void tri_list_erase(std::vector<TriangleId>& xs, TriangleId t) {
    auto it = std::find(xs.begin(), xs.end(), t);
    if (it != xs.end()) {
      *it = xs.back();
      xs.pop_back();
    }
  }
};

struct HeapEntry {
  double priority;
  VertexId a, b;
  std::uint32_t va_version, vb_version;
  // Min-heap via reversed comparison in a max-priority_queue.
  bool operator<(const HeapEntry& o) const { return priority > o.priority; }
};

class ReferenceDecimator {
 public:
  ReferenceDecimator(const TriMesh& mesh, const Field& values, const DecimateOptions& opt)
      : opt_(opt), rng_(opt.seed) {
    CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                  "field size does not match vertex count");
    CANOPUS_CHECK(opt.ratio >= 1.0, "decimation ratio must be >= 1");
    ws_.pos = mesh.vertices();
    ws_.val = values;
    ws_.vertex_alive.assign(ws_.pos.size(), true);
    ws_.tris = mesh.triangles();
    ws_.tri_alive.assign(ws_.tris.size(), true);
    ws_.version.assign(ws_.pos.size(), 0);
    ws_.nbr.assign(ws_.pos.size(), {});
    ws_.inc.assign(ws_.pos.size(), {});
    for (TriangleId t = 0; t < ws_.tris.size(); ++t) {
      for (VertexId v : ws_.tris[t].v) ws_.inc[v].push_back(t);
    }
    for (const auto& e : reference_edges(mesh)) {
      ws_.nbr[e.a].push_back(e.b);
      ws_.nbr[e.b].push_back(e.a);
    }
    // Scale-aware degeneracy threshold (squared area units).
    const auto box = mesh.bounds();
    const double diag2 = box.width() * box.width() + box.height() * box.height();
    min_area2_ = 1e-14 * diag2;
    if (opt.priority == EdgePriority::kGradientWeighted) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      value_range_ = std::max(*hi - *lo, 1e-300);
    }
    for (const auto& e : reference_edges(mesh)) push_edge(e.a, e.b);
  }

  DecimateResult run() {
    const std::size_t n0 = ws_.pos.size();
    const double cut_fraction_target = 1.0 - 1.0 / opt_.ratio;
    std::size_t cut = 0;
    std::size_t rejected = 0;
    while (static_cast<double>(cut) / static_cast<double>(n0) < cut_fraction_target &&
           !heap_.empty()) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      if (!entry_valid(e)) continue;
      if (try_collapse(e.a, e.b)) {
        ++cut;
      } else {
        ++rejected;
      }
    }
    DecimateResult r = compact();
    r.achieved_ratio = static_cast<double>(n0) / static_cast<double>(r.mesh.vertex_count());
    r.collapses = cut;
    r.rejected = rejected;
    return r;
  }

 private:
  double edge_priority(VertexId a, VertexId b) {
    const double len = distance(ws_.pos[a], ws_.pos[b]);
    switch (opt_.priority) {
      case EdgePriority::kShortestFirst:
        return len;
      case EdgePriority::kRandom:
        return rng_.uniform();
      case EdgePriority::kGradientWeighted:
        return len * (1.0 + opt_.gradient_weight *
                                std::abs(ws_.val[a] - ws_.val[b]) / value_range_);
    }
    CANOPUS_UNREACHABLE("unknown edge priority");
  }

  void push_edge(VertexId a, VertexId b) {
    heap_.push(HeapEntry{edge_priority(a, b), a, b, ws_.version[a], ws_.version[b]});
  }

  bool entry_valid(const HeapEntry& e) const {
    return ws_.vertex_alive[e.a] && ws_.vertex_alive[e.b] &&
           ws_.version[e.a] == e.va_version && ws_.version[e.b] == e.vb_version &&
           std::find(ws_.nbr[e.a].begin(), ws_.nbr[e.a].end(), e.b) != ws_.nbr[e.a].end();
  }

  /// Link condition: the set of vertices adjacent to both endpoints must be
  /// exactly the opposite vertices of the triangles sharing the edge.
  bool link_condition_ok(VertexId i, VertexId j) const {
    std::vector<VertexId> opposite;
    for (TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
      if (!has_j) continue;
      for (VertexId v : tv) {
        if (v != i && v != j) opposite.push_back(v);
      }
    }
    std::size_t common = 0;
    for (VertexId n : ws_.nbr[i]) {
      if (std::find(ws_.nbr[j].begin(), ws_.nbr[j].end(), n) != ws_.nbr[j].end()) {
        ++common;
        if (std::find(opposite.begin(), opposite.end(), n) == opposite.end()) {
          return false;  // shared neighbor not across the edge -> pinch
        }
      }
    }
    return common == opposite.size() && !opposite.empty();
  }

  /// Checks every surviving triangle around i or j keeps positive area when
  /// the collapsed endpoint moves to `m`.
  bool geometry_ok(VertexId i, VertexId j, Vec2 m) const {
    auto survives_ok = [&](VertexId endpoint) {
      for (TriangleId t : ws_.inc[endpoint]) {
        if (!ws_.tri_alive[t]) continue;
        const auto& tv = ws_.tris[t].v;
        const bool has_i = tv[0] == i || tv[1] == i || tv[2] == i;
        const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
        if (has_i && has_j) continue;  // dies with the collapse
        Vec2 p[3];
        for (int k = 0; k < 3; ++k) {
          p[k] = (tv[k] == i || tv[k] == j) ? m : ws_.pos[tv[k]];
        }
        if (signed_area2(p[0], p[1], p[2]) <= min_area2_) return false;
      }
      return true;
    };
    return survives_ok(i) && survives_ok(j);
  }

  bool try_collapse(VertexId i, VertexId j) {
    if (!link_condition_ok(i, j)) return false;
    const Vec2 m = (ws_.pos[i] + ws_.pos[j]) * 0.5;  // NewVertex(Vi, Vj)
    if (!geometry_ok(i, j, m)) return false;

    // Kill triangles containing the edge.
    for (TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      if (tv[0] == j || tv[1] == j || tv[2] == j) {
        ws_.tri_alive[t] = false;
        for (VertexId v : tv) {
          if (v != i) Workspace::tri_list_erase(ws_.inc[v], t);
        }
      }
    }
    ws_.inc[i].erase(std::remove_if(ws_.inc[i].begin(), ws_.inc[i].end(),
                                    [&](TriangleId t) { return !ws_.tri_alive[t]; }),
                     ws_.inc[i].end());

    // Rewire triangles that referenced only j.
    for (TriangleId t : ws_.inc[j]) {
      if (!ws_.tri_alive[t]) continue;
      for (VertexId& v : ws_.tris[t].v) {
        if (v == j) v = i;
      }
      ws_.inc[i].push_back(t);
    }
    ws_.inc[j].clear();

    // Merge adjacency: neighbors of j become neighbors of i.
    for (VertexId n : ws_.nbr[j]) {
      if (n == i) continue;
      Workspace::list_erase(ws_.nbr[n], j);
      Workspace::list_insert(ws_.nbr[n], i);
      Workspace::list_insert(ws_.nbr[i], n);
    }
    Workspace::list_erase(ws_.nbr[i], j);
    ws_.nbr[j].clear();

    // Move i to the midpoint, average the data (NewData = mean).
    ws_.pos[i] = m;
    ws_.val[i] = (ws_.val[i] + ws_.val[j]) * 0.5;
    ws_.vertex_alive[j] = false;
    collapse_log_.emplace_back(i, j);

    // Invalidate stale heap entries and re-key every edge incident to i.
    ++ws_.version[i];
    ++ws_.version[j];
    for (VertexId n : ws_.nbr[i]) push_edge(i, n);
    return true;
  }

  DecimateResult compact() const {
    std::vector<VertexId> remap(ws_.pos.size(), kInvalidVertex);
    std::vector<Vec2> vertices;
    Field values;
    auto has_live_triangle = [&](VertexId v) {
      for (TriangleId t : ws_.inc[v]) {
        if (ws_.tri_alive[t]) return true;
      }
      return false;
    };
    // A collapse can orphan a boundary-corner vertex whose only triangle died;
    // drop such vertices so the compacted mesh has no isolated vertices.
    std::vector<VertexId> survivors;
    for (VertexId v = 0; v < ws_.pos.size(); ++v) {
      if (ws_.vertex_alive[v] && has_live_triangle(v)) {
        remap[v] = static_cast<VertexId>(vertices.size());
        vertices.push_back(ws_.pos[v]);
        values.push_back(ws_.val[v]);
        survivors.push_back(v);
      }
    }
    std::vector<Triangle> tris;
    for (TriangleId t = 0; t < ws_.tris.size(); ++t) {
      if (!ws_.tri_alive[t]) continue;
      Triangle tri = ws_.tris[t];
      for (VertexId& v : tri.v) v = remap[v];
      tris.push_back(tri);
    }
    DecimateResult r;
    r.mesh = TriMesh(std::move(vertices), std::move(tris));
    r.values = std::move(values);
    r.collapse_log = collapse_log_;
    r.survivor_slots = std::move(survivors);
    return r;
  }

  DecimateOptions opt_;
  util::Rng rng_;
  Workspace ws_;
  std::priority_queue<HeapEntry> heap_;
  std::vector<std::pair<VertexId, VertexId>> collapse_log_;
  double min_area2_ = 0.0;
  double value_range_ = 1.0;
};


DecimateResult reference_decimate(const TriMesh& mesh, const Field& values,
                                  const DecimateOptions& options) {
  ReferenceDecimator d(mesh, values, options);
  return d.run();
}

}  // namespace
}  // namespace canopus::mesh

namespace {

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void expect_same_decimation(const cm::DecimateResult& got,
                            const cm::DecimateResult& want,
                            const std::string& context) {
  EXPECT_TRUE(same_bytes(got.mesh.vertices(), want.mesh.vertices())) << context;
  EXPECT_TRUE(same_bytes(got.mesh.triangles(), want.mesh.triangles())) << context;
  EXPECT_TRUE(same_bytes(got.values, want.values)) << context;
  EXPECT_EQ(got.collapse_log, want.collapse_log) << context;
  EXPECT_EQ(got.survivor_slots, want.survivor_slots) << context;
  EXPECT_EQ(got.collapses, want.collapses) << context;
  EXPECT_EQ(got.rejected, want.rejected) << context;
  EXPECT_EQ(got.achieved_ratio, want.achieved_ratio) << context;
}

}  // namespace

// Equal priorities pop in an order set by the heap's layout, so only the same
// pushes in the same order reproduce a decimation. The unjittered families
// tie on nearly every edge length; the sweep covers every priority.
class DecimationEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(DecimationEquivalence, MatchesReferenceBitForBit) {
  const auto& [family, jittered] = GetParam();
  const auto mesh = make_mesh(family, jittered);
  const auto field = analytic_field(mesh);
  EXPECT_EQ(mesh.edges(), cm::reference_edges(mesh));
  for (const double ratio : {1.0, 1.5, 2.0, 4.0, 8.0}) {
    for (const auto priority : {cm::EdgePriority::kShortestFirst,
                                cm::EdgePriority::kRandom,
                                cm::EdgePriority::kGradientWeighted}) {
      cm::DecimateOptions opt;
      opt.ratio = ratio;
      opt.priority = priority;
      expect_same_decimation(cm::decimate(mesh, field, opt),
                             cm::reference_decimate(mesh, field, opt),
                             "ratio " + std::to_string(ratio) +
                                 priority_suffix(priority));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndTies, DecimationEquivalence,
    ::testing::Combine(
        ::testing::Values("rect", "annulus", "disk", "airfoil", "shuffled"),
        ::testing::Bool()),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) +
             (std::get<1>(param_info.param) ? "_jittered" : "_exact_ties");
    });

// The write path's cascade (4 levels, step 2) on full-size XGC planes: every
// level and every pass's collapse log as the reference decimator makes them.
TEST(CascadeEquivalence, XgcPlanesMatchReferenceBitForBit) {
  for (const std::uint64_t seed : {3000u, 5007u, 21000u}) {
    canopus::sim::XgcOptions xopt;
    xopt.seed = seed;
    const auto ds = canopus::sim::make_xgc_dataset(xopt);
    cm::CascadeOptions copt;
    copt.levels = 4;
    copt.step = 2.0;
    std::vector<cm::DecimateResult> passes;
    const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt, &passes);
    ASSERT_EQ(cascade.level_count(), 4u);
    ASSERT_EQ(passes.size(), 3u);
    cm::LevelData prev{ds.mesh, ds.values};
    for (std::size_t l = 1; l < 4; ++l) {
      cm::DecimateOptions step = copt.decimate;
      step.ratio = copt.step;
      const auto want = cm::reference_decimate(prev.mesh, prev.values, step);
      const std::string context =
          "seed " + std::to_string(seed) + " level " + std::to_string(l);
      const auto& got = cascade.levels[l];
      EXPECT_TRUE(same_bytes(got.mesh.vertices(), want.mesh.vertices())) << context;
      EXPECT_TRUE(same_bytes(got.mesh.triangles(), want.mesh.triangles())) << context;
      EXPECT_TRUE(same_bytes(got.values, want.values)) << context;
      EXPECT_EQ(passes[l - 1].collapse_log, want.collapse_log) << context;
      EXPECT_EQ(passes[l - 1].survivor_slots, want.survivor_slots) << context;
      EXPECT_EQ(passes[l - 1].collapses, want.collapses) << context;
      EXPECT_EQ(passes[l - 1].rejected, want.rejected) << context;
      prev = cm::LevelData{want.mesh, want.values};
    }
  }
}

// ------------------------------------------------------------ codec bounds --

class CodecBoundSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, double>> {};

TEST_P(CodecBoundSweep, ErrorBoundHeld) {
  const auto& [codec_name, signal, eb] = GetParam();
  const auto codec = cp::make_codec(codec_name);
  const auto xs = make_signal(signal, 6000);
  const auto dec = codec->decode(codec->encode(xs, eb));
  ASSERT_EQ(dec.size(), xs.size());
  EXPECT_LE(cu::max_abs_error(xs, dec), eb)
      << codec_name << " on " << signal << " eb=" << eb;
}

INSTANTIATE_TEST_SUITE_P(
    CodecsSignalsBounds, CodecBoundSweep,
    ::testing::Combine(::testing::Values("zfp", "sz", "zfp+lzss", "sz+huffman"),
                       ::testing::Values("smooth", "noisy", "spiky", "steps",
                                         "tiny"),
                       ::testing::Values(1e-1, 1e-4, 1e-8)),
    [](const auto& param_info) {
      std::string c = std::get<0>(param_info.param);
      std::replace(c.begin(), c.end(), '+', '_');
      return c + "_" + std::get<1>(param_info.param) + "_e" +
             std::to_string(
                 static_cast<int>(-std::log10(std::get<2>(param_info.param))));
    });

// ----------------------------------------------------------- delta inverse --

class DeltaInverseSweep
    : public ::testing::TestWithParam<std::tuple<std::string, cc::EstimateMode>> {
};

TEST_P(DeltaInverseSweep, RestoreInvertsDeltaAcrossTwoLevels) {
  const auto& [family, mode] = GetParam();
  const auto mesh = make_mesh(family);
  const auto field = analytic_field(mesh);
  cm::CascadeOptions copt;
  copt.levels = 3;
  const auto cascade = cm::build_cascade(mesh, field, copt);
  for (std::size_t l = 0; l + 1 < 3; ++l) {
    const auto& fine = cascade.levels[l];
    const auto& coarse = cascade.levels[l + 1];
    const auto mapping = cc::build_mapping(fine.mesh, coarse.mesh);
    const auto delta =
        cc::compute_delta(coarse.mesh, coarse.values, fine.values, mapping, mode);
    const auto restored =
        cc::restore_level(coarse.mesh, coarse.values, delta, mapping, mode);
    ASSERT_EQ(restored.size(), fine.values.size());
    EXPECT_LE(cu::max_abs_error(fine.values, restored), 1e-13)
        << family << " level " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesModes, DeltaInverseSweep,
    ::testing::Combine(::testing::Values("rect", "annulus", "disk", "airfoil"),
                       ::testing::Values(cc::EstimateMode::kUniformThirds,
                                         cc::EstimateMode::kBarycentric,
                                         cc::EstimateMode::kNearestVertex)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             cc::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------- point-location equivalence --

namespace {

/// PointLocator as it was before its grid became CSR arrays and its
/// nearest-triangle fallback a ring search: one vector per grid cell and a
/// linear scan over every triangle. Kept as the reference the locator must
/// match bit for bit.
class ReferenceLocator {
 public:
  explicit ReferenceLocator(const cm::TriMesh& mesh) : mesh_(mesh) {
    bounds_ = mesh.bounds();
    const double target = std::max(1.0, static_cast<double>(mesh.triangle_count()));
    const double aspect = std::max(bounds_.width(), 1e-300) /
                          std::max(bounds_.height(), 1e-300);
    ny_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(target / aspect)));
    nx_ = std::max<std::size_t>(1, static_cast<std::size_t>(target / static_cast<double>(ny_)));
    inv_dx_ = bounds_.width() > 0.0 ? static_cast<double>(nx_) / bounds_.width() : 0.0;
    inv_dy_ = bounds_.height() > 0.0 ? static_cast<double>(ny_) / bounds_.height() : 0.0;
    cells_.assign(nx_ * ny_, {});
    const auto& verts = mesh.vertices();
    for (cm::TriangleId t = 0; t < mesh.triangle_count(); ++t) {
      const auto& tri = mesh.triangle(t);
      cm::Aabb box;
      box.lo = box.hi = verts[tri.v[0]];
      box.expand(verts[tri.v[1]]);
      box.expand(verts[tri.v[2]]);
      const auto c0 = cell_of(box.lo);
      const auto c1 = cell_of(box.hi);
      for (std::size_t y = c0 / nx_; y <= c1 / nx_; ++y) {
        for (std::size_t x = c0 % nx_; x <= c1 % nx_; ++x) {
          cells_[y * nx_ + x].push_back(t);
        }
      }
    }
  }

  std::size_t grid_nx() const { return nx_; }
  std::size_t grid_ny() const { return ny_; }

  std::optional<cm::Location> try_locate(cm::Vec2 p) const {
    const auto& verts = mesh_.vertices();
    for (cm::TriangleId t : cells_[cell_of(p)]) {
      const auto& tri = mesh_.triangle(t);
      const auto w = cm::barycentric(p, verts[tri.v[0]], verts[tri.v[1]], verts[tri.v[2]]);
      constexpr double eps = 1e-10;
      if (w[0] >= -eps && w[1] >= -eps && w[2] >= -eps) {
        return cm::Location{t, w, true};
      }
    }
    return std::nullopt;
  }

  cm::Location nearest_fallback(cm::Vec2 p) const {
    const auto& verts = mesh_.vertices();
    cm::Location best;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (cm::TriangleId t = 0; t < mesh_.triangle_count(); ++t) {
      const auto& tri = mesh_.triangle(t);
      const cm::Vec2 a = verts[tri.v[0]], b = verts[tri.v[1]], c = verts[tri.v[2]];
      auto w = cm::barycentric(p, a, b, c);
      for (double& wi : w) wi = std::max(0.0, wi);
      const double sum = w[0] + w[1] + w[2];
      if (sum <= 0.0) continue;
      for (double& wi : w) wi /= sum;
      const cm::Vec2 proj = a * w[0] + b * w[1] + c * w[2];
      const double d2 = (proj - p).norm2();
      if (d2 < best_d2) {
        best_d2 = d2;
        best = cm::Location{t, w, false};
      }
    }
    return best;
  }

 private:
  std::size_t cell_of(cm::Vec2 p) const {
    auto clampi = [](double v, std::size_t n) {
      if (v < 0.0) return std::size_t{0};
      const auto i = static_cast<std::size_t>(v);
      return std::min(i, n - 1);
    };
    const std::size_t x = clampi((p.x - bounds_.lo.x) * inv_dx_, nx_);
    const std::size_t y = clampi((p.y - bounds_.lo.y) * inv_dy_, ny_);
    return y * nx_ + x;
  }

  const cm::TriMesh& mesh_;
  cm::Aabb bounds_;
  std::size_t nx_ = 1, ny_ = 1;
  double inv_dx_ = 0.0, inv_dy_ = 0.0;
  std::vector<std::vector<cm::TriangleId>> cells_;
};

bool same_bits(const cm::Location& a, const cm::Location& b) {
  return a.triangle == b.triangle && a.exact == b.exact &&
         std::memcmp(a.weights.data(), b.weights.data(), sizeof(a.weights)) == 0;
}

/// Locates every query with both locators. Returns how many queries missed
/// every triangle and so went through the nearest-triangle fallback.
std::size_t expect_same_locations(const cm::TriMesh& mesh,
                                  const std::vector<cm::Vec2>& queries,
                                  const std::string& context) {
  const cm::PointLocator locator(mesh);
  const ReferenceLocator reference(mesh);
  EXPECT_EQ(locator.grid_nx(), reference.grid_nx()) << context;
  EXPECT_EQ(locator.grid_ny(), reference.grid_ny()) << context;
  std::size_t fallbacks = 0, mismatches = 0;
  for (const auto& p : queries) {
    const auto hit = reference.try_locate(p);
    const auto csr_hit = locator.try_locate(p);
    if (hit.has_value() != csr_hit.has_value() ||
        (hit && !same_bits(*hit, *csr_hit))) {
      ++mismatches;
      ADD_FAILURE() << context << ": try_locate differs at (" << p.x << ", "
                    << p.y << ")";
      continue;
    }
    if (!hit) ++fallbacks;
    const auto want = hit ? *hit : reference.nearest_fallback(p);
    const auto got = locator.locate(p);
    if (!same_bits(got, want)) {
      ++mismatches;
      ADD_FAILURE() << context << ": locate differs at (" << p.x << ", " << p.y
                    << "): triangle " << got.triangle << " vs reference "
                    << want.triangle;
    }
  }
  EXPECT_EQ(mismatches, 0u) << context;
  return fallbacks;
}

/// Points around `box` at distances from a hair to a thousand box sizes, on
/// every side and corner.
std::vector<cm::Vec2> points_around(const cm::Aabb& box, cu::Rng& rng) {
  const double size = box.width() + box.height();
  std::vector<cm::Vec2> out;
  for (const double d : {1e-6, 1e-3, 0.05, 0.5, 3.0, 40.0, 1e3}) {
    for (int k = 0; k < 8; ++k) {
      const double gap = d * size * rng.uniform(1.0, 2.0);
      const double tx = box.lo.x + rng.uniform(0.0, 1.0) * box.width();
      const double ty = box.lo.y + rng.uniform(0.0, 1.0) * box.height();
      out.push_back({box.lo.x - gap, ty});
      out.push_back({box.hi.x + gap, ty});
      out.push_back({tx, box.lo.y - gap});
      out.push_back({tx, box.hi.y + gap});
      out.push_back({box.lo.x - gap, box.lo.y - gap});
      out.push_back({box.hi.x + gap, box.lo.y - gap});
      out.push_back({box.lo.x - gap, box.hi.y + gap});
      out.push_back({box.hi.x + gap, box.hi.y + gap});
    }
  }
  return out;
}

}  // namespace

// The locator's grid-pruned fallback and CSR grid must answer exactly as the
// linear scan and per-cell lists did, so mappings, deltas and stored bytes
// stay unchanged. Queries: rim vertices that decimation leaves outside the
// next coarser level of each dataset, points around each level's bounds, and
// a structured rect grid whose equal-distance triangles force id tie-breaks.
TEST(PointLocationEquivalence, MatchesLinearScanBitForBit) {
  const std::uint64_t base = canopus::test::test_seed();
  SCOPED_TRACE("replay with CANOPUS_TEST_SEED=" + std::to_string(base));
  cu::Rng rng(base * 7919 + 17);
  std::size_t fallbacks = 0, rim = 0;

  cm::CascadeOptions copt;
  copt.levels = 4;
  for (const auto& ds : canopus::sim::all_datasets(0.1, base + 3)) {
    const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
    for (std::size_t l = 0; l + 1 < cascade.level_count(); ++l) {
      const auto& coarse = cascade.levels[l + 1].mesh;
      const auto context = ds.name + " L" + std::to_string(l) + "->L" +
                           std::to_string(l + 1);
      const auto level_rim = expect_same_locations(
          coarse, cascade.levels[l].mesh.vertices(), context + " vertices");
      rim += level_rim;
      fallbacks += level_rim;
      // Random points over the bounds grown by half on every side.
      const auto box = coarse.bounds();
      std::vector<cm::Vec2> queries = points_around(box, rng);
      for (int i = 0; i < 600; ++i) {
        queries.push_back(
            {box.lo.x + rng.uniform(-0.5, 1.5) * box.width(),
             box.lo.y + rng.uniform(-0.5, 1.5) * box.height()});
      }
      fallbacks += expect_same_locations(coarse, queries, context + " around");
    }
  }

  // Structured grid: a point beside a shared edge or vertex is equally near
  // to several triangles, so only the lowest id may win.
  const auto grid = cm::make_rect_mesh(24, 16, 3.0, 2.0);
  std::vector<cm::Vec2> ties = points_around(grid.bounds(), rng);
  for (int i = 0; i <= 48; ++i) {
    for (const double d : {0.01, 0.125, 0.5, 2.0}) {
      const double x = 3.0 * i / 48.0, y = 2.0 * i / 48.0;
      ties.push_back({-d, y});
      ties.push_back({3.0 + d, y});
      ties.push_back({x, -d});
      ties.push_back({x, 2.0 + d});
    }
  }
  for (int i = 0; i < 2000; ++i) {
    ties.push_back({rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 3.0)});
  }
  fallbacks += expect_same_locations(grid, ties, "rect grid");

  EXPECT_GE(rim, 300u);
  EXPECT_GE(fallbacks, 10000u);
}

// ------------------------------------------------------ end-to-end budgets --

class RoundTripSweep
    : public ::testing::TestWithParam<std::tuple<cc::EstimateMode, bool>> {};

TEST_P(RoundTripSweep, BudgetHeldUnderEstimateAndPlacementVariants) {
  const auto& [mode, tiered] = GetParam();
  const auto mesh = make_mesh("annulus");
  const auto field = analytic_field(mesh);
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.estimate = mode;
  config.tiered_placement = tiered;
  cc::refactor_and_write(tiers, "rt.bp", "v", mesh, field, config);
  cc::ProgressiveReader reader(tiers, "rt.bp", "v");
  reader.refine_to(0);
  EXPECT_LE(cu::max_abs_error(field, reader.values()), 3e-6);
}

INSTANTIATE_TEST_SUITE_P(
    EstimatePlacement, RoundTripSweep,
    ::testing::Combine(::testing::Values(cc::EstimateMode::kUniformThirds,
                                         cc::EstimateMode::kBarycentric,
                                         cc::EstimateMode::kNearestVertex),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return cc::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_tiered" : "_flat");
    });

// --------------------------------------------------------- frame integrity --

// The integrity contract of the framed-blob format: whatever corruption hits
// the stored bytes, a read either fails verification or returns exactly the
// payload that was written — it never silently yields different data.
TEST(FrameIntegritySweep, CorruptedFramesNeverYieldWrongBytes) {
  const std::uint64_t base = canopus::test::test_seed();
  for (std::uint64_t round = 0; round < 100; ++round) {
    const std::uint64_t seed = base + round;
    cu::Rng rng(seed * 977 + 1);
    cu::Bytes payload(1 + rng.uniform_index(2048));
    for (auto& b : payload) b = static_cast<std::byte>(rng.uniform_index(256));
    const auto frame = canopus::storage::frame_blob(payload);

    auto corrupted = frame;
    const std::size_t flips = 1 + rng.uniform_index(8);
    for (std::size_t i = 0; i < flips; ++i) {
      const auto pos = rng.uniform_index(corrupted.size());
      const auto mask = static_cast<std::byte>(1 + rng.uniform_index(255));
      corrupted[pos] ^= mask;  // nonzero mask: the byte definitely changes
    }

    try {
      const auto out = canopus::storage::unframe_blob(corrupted);
      // Corruption slipped past the CRC (possible in principle for multi-bit
      // patterns): the payload must still be byte-identical to count as ok.
      EXPECT_EQ(out, payload)
          << "replay with CANOPUS_TEST_SEED=" << seed << " (base " << base
          << ")";
    } catch (const canopus::storage::IntegrityError&) {
      // Detected — the expected outcome.
    }
  }
}

// Regression guard for the Fig. 5 mechanism itself.
TEST(Fig5Mechanism, CanopusWinsOnShuffledMeshesLosesNothingOnOrdered) {
  for (const bool shuffled : {false, true}) {
    auto mesh = cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.1, 21);
    if (shuffled) mesh = cm::shuffle_vertices(mesh, 9);
    const auto field = analytic_field(mesh);
    cc::RefactorConfig config;
    config.levels = 3;
    config.codec = "zfp";
    config.error_bound = 1e-4;
    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
    const auto canopus = cc::refactor_and_write(tiers, "f.bp", "v", mesh,
                                                field, config);
    const auto direct = cc::direct_multilevel_sizes(mesh, field, config);
    if (shuffled) {
      // Realistic (incoherent) numbering: the mesh-aware deltas must win.
      EXPECT_LT(canopus.total_stored_bytes() * 100,
                direct.total_stored_bytes() * 98);
    } else {
      // Even with raster numbering Canopus should not lose badly.
      EXPECT_LT(canopus.total_stored_bytes(),
                direct.total_stored_bytes() * 11 / 10);
    }
  }
}
