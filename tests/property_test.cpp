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
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "compress/codec.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "compress/zfp_like.hpp"
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
#include "util/bitstream.hpp"
#include "util/crc32.hpp"
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
  } else if (family == "mixed") {
    // Each 64-value block holds 1e10 beside values near 1e-10, so its
    // fixed-point quantum (2^-26 ~ 1.5e-8) dwarfs all but one of them.
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<double>(i % 64);
      xs[i] = k == 0.0 ? 1e10 : 1e-10 * (1.0 + 0.1 * k);
    }
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

// A reference decimator written from decimate.hpp's contract rather than
// from decimate.cpp: one std::vector per vertex for adjacency and incidence,
// std::vector<bool> flags, edges from reference_edges, and the queue a
// std::set of (priority, survivor, dying) keys beside a map from each live
// edge to its current key. The decimator must match it bit for bit, ties in
// priority included.

/// decimate.hpp's kRandom priority, from the formula it states.
double reference_random_priority(std::uint64_t seed, VertexId survivor,
                                 VertexId dying, std::uint64_t collapses) {
  const auto m = [](std::uint64_t z) {
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const std::uint64_t h = m(m(m(m(seed) ^ survivor) ^ dying) ^ collapses);
  return std::ldexp(static_cast<double>(h >> 11), -53);
}

class ReferenceDecimator {
 public:
  ReferenceDecimator(const TriMesh& mesh, const Field& values, const DecimateOptions& opt)
      : opt_(opt) {
    CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                  "field size does not match vertex count");
    CANOPUS_CHECK(opt.ratio >= 1.0, "decimation ratio must be >= 1");
    pos_ = mesh.vertices();
    val_ = values;
    vertex_alive_.assign(pos_.size(), true);
    tris_ = mesh.triangles();
    tri_alive_.assign(tris_.size(), true);
    nbr_.assign(pos_.size(), {});
    inc_.assign(pos_.size(), {});
    for (TriangleId t = 0; t < tris_.size(); ++t) {
      for (VertexId v : tris_[t].v) inc_[v].push_back(t);
    }
    // Scale-aware degeneracy threshold (squared area units).
    const auto box = mesh.bounds();
    const double diag2 = box.width() * box.width() + box.height() * box.height();
    min_area2_ = 1e-14 * diag2;
    if (opt.priority == EdgePriority::kGradientWeighted) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      value_range_ = std::max(*hi - *lo, 1e-300);
    }
    for (const auto& e : reference_edges(mesh)) {
      nbr_[e.a].push_back(e.b);
      nbr_[e.b].push_back(e.a);
      enqueue(e.a, e.b);
    }
  }

  DecimateResult run() {
    const std::size_t n0 = pos_.size();
    const double cut_fraction_target = 1.0 - 1.0 / opt_.ratio;
    std::size_t cut = 0;
    std::size_t rejected = 0;
    while (static_cast<double>(cut) / static_cast<double>(n0) < cut_fraction_target &&
           !queue_.empty()) {
      const Key top = *queue_.begin();
      queue_.erase(queue_.begin());
      const VertexId i = std::get<1>(top);
      const VertexId j = std::get<2>(top);
      key_of_.at(Edge(i, j)).reset();  // rejected until re-keyed
      if (try_collapse(i, j)) {
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
  using Key = std::tuple<double, VertexId, VertexId>;

  double edge_priority(VertexId a, VertexId b) const {
    const double len = distance(pos_[a], pos_[b]);
    switch (opt_.priority) {
      case EdgePriority::kShortestFirst:
        return len;
      case EdgePriority::kRandom:
        return reference_random_priority(opt_.seed, a, b, log_.size());
      case EdgePriority::kGradientWeighted:
        return len * (1.0 + opt_.gradient_weight *
                                std::abs(val_[a] - val_[b]) / value_range_);
    }
    CANOPUS_UNREACHABLE("unknown edge priority");
  }

  /// Queues edge {a, b} under the key (priority, a, b), replacing any key
  /// it had.
  void enqueue(VertexId a, VertexId b) {
    drop(a, b);
    const Key key{edge_priority(a, b), a, b};
    queue_.insert(key);
    key_of_[Edge(a, b)] = key;
  }

  /// Forgets edge {a, b} and its queued key, if any.
  void drop(VertexId a, VertexId b) {
    const auto it = key_of_.find(Edge(a, b));
    if (it == key_of_.end()) return;
    if (it->second) queue_.erase(*it->second);
    key_of_.erase(it);
  }

  static bool holds(const std::vector<VertexId>& xs, VertexId v) {
    return std::find(xs.begin(), xs.end(), v) != xs.end();
  }
  template <class T>
  static void erase_value(std::vector<T>& xs, T v) {
    xs.erase(std::remove(xs.begin(), xs.end(), v), xs.end());
  }

  /// Link condition: the set of vertices adjacent to both endpoints must be
  /// exactly the opposite vertices of the triangles sharing the edge.
  bool link_condition_ok(VertexId i, VertexId j) const {
    std::vector<VertexId> opposite;
    for (TriangleId t : inc_[i]) {
      if (!tri_alive_[t]) continue;
      const auto& tv = tris_[t].v;
      const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
      if (!has_j) continue;
      for (VertexId v : tv) {
        if (v != i && v != j) opposite.push_back(v);
      }
    }
    std::size_t common = 0;
    for (VertexId n : nbr_[i]) {
      if (holds(nbr_[j], n)) {
        ++common;
        if (!holds(opposite, n)) return false;  // shared neighbor not across the edge
      }
    }
    return common == opposite.size() && !opposite.empty();
  }

  /// Checks every surviving triangle around i or j keeps positive area when
  /// the collapsed endpoint moves to `m`.
  bool geometry_ok(VertexId i, VertexId j, Vec2 m) const {
    auto survives_ok = [&](VertexId endpoint) {
      for (TriangleId t : inc_[endpoint]) {
        if (!tri_alive_[t]) continue;
        const auto& tv = tris_[t].v;
        const bool has_i = tv[0] == i || tv[1] == i || tv[2] == i;
        const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
        if (has_i && has_j) continue;  // dies with the collapse
        Vec2 p[3];
        for (int k = 0; k < 3; ++k) {
          p[k] = (tv[k] == i || tv[k] == j) ? m : pos_[tv[k]];
        }
        if (signed_area2(p[0], p[1], p[2]) <= min_area2_) return false;
      }
      return true;
    };
    return survives_ok(i) && survives_ok(j);
  }

  bool try_collapse(VertexId i, VertexId j) {
    if (!link_condition_ok(i, j)) return false;
    const Vec2 m = (pos_[i] + pos_[j]) * 0.5;  // NewVertex(Vi, Vj)
    if (!geometry_ok(i, j, m)) return false;

    // Triangles containing the edge die; j's others now use i.
    std::vector<TriangleId> dying;
    for (TriangleId t : inc_[i]) {
      const auto& tv = tris_[t].v;
      if (tv[0] == j || tv[1] == j || tv[2] == j) dying.push_back(t);
    }
    for (TriangleId t : dying) {
      tri_alive_[t] = false;
      for (VertexId v : tris_[t].v) erase_value(inc_[v], t);
    }
    for (TriangleId t : inc_[j]) {
      for (VertexId& v : tris_[t].v) {
        if (v == j) v = i;
      }
      inc_[i].push_back(t);
    }
    inc_[j].clear();

    // Edges: {i, j} and every edge of j go; j's neighbours become i's.
    drop(i, j);
    for (VertexId n : nbr_[j]) {
      if (n == i) continue;
      drop(j, n);
      erase_value(nbr_[n], j);
      if (!holds(nbr_[i], n)) {
        nbr_[i].push_back(n);
        nbr_[n].push_back(i);
      }
    }
    erase_value(nbr_[i], j);
    nbr_[j].clear();

    // Move i to the midpoint, average the data (NewData = mean).
    pos_[i] = m;
    val_[i] = (val_[i] + val_[j]) * 0.5;
    vertex_alive_[j] = false;
    log_.emplace_back(i, j);

    // Every edge of i is re-keyed as (i, n) and queued.
    for (VertexId n : nbr_[i]) enqueue(i, n);
    return true;
  }

  DecimateResult compact() const {
    std::vector<VertexId> remap(pos_.size(), kInvalidVertex);
    std::vector<Vec2> vertices;
    Field values;
    auto has_live_triangle = [&](VertexId v) {
      for (TriangleId t : inc_[v]) {
        if (tri_alive_[t]) return true;
      }
      return false;
    };
    // A collapse can orphan a boundary-corner vertex whose only triangle died;
    // drop such vertices so the compacted mesh has no isolated vertices.
    std::vector<VertexId> survivors;
    for (VertexId v = 0; v < pos_.size(); ++v) {
      if (vertex_alive_[v] && has_live_triangle(v)) {
        remap[v] = static_cast<VertexId>(vertices.size());
        vertices.push_back(pos_[v]);
        values.push_back(val_[v]);
        survivors.push_back(v);
      }
    }
    std::vector<Triangle> tris;
    for (TriangleId t = 0; t < tris_.size(); ++t) {
      if (!tri_alive_[t]) continue;
      Triangle tri = tris_[t];
      for (VertexId& v : tri.v) v = remap[v];
      tris.push_back(tri);
    }
    DecimateResult r;
    r.mesh = TriMesh(std::move(vertices), std::move(tris));
    r.values = std::move(values);
    r.collapse_log = log_;
    r.survivor_slots = std::move(survivors);
    return r;
  }

  DecimateOptions opt_;
  std::vector<Vec2> pos_;
  std::vector<double> val_;
  std::vector<bool> vertex_alive_;
  std::vector<std::vector<VertexId>> nbr_;    // adjacent alive vertices
  std::vector<Triangle> tris_;
  std::vector<bool> tri_alive_;
  std::vector<std::vector<TriangleId>> inc_;  // incident live triangles
  std::set<Key> queue_;
  /// Each live edge's key; empty while the edge is rejected.
  std::map<Edge, std::optional<Key>> key_of_;
  std::vector<std::pair<VertexId, VertexId>> log_;
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

// Equal priorities are tried in (survivor, dying) order. The unjittered
// families tie on nearly every edge length, so they exercise that rule; the
// sweep covers every priority.
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
    ASSERT_EQ(cascade.logs.size(), 3u);
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
      EXPECT_EQ(cascade.logs[l - 1], want.collapse_log) << context;
      EXPECT_TRUE(passes[l - 1].collapse_log.empty()) << context;
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

// A "head+stage" row codes with the head codec and carries its stream
// through a standalone lossless byte coder (lzss or huffman), which must
// hand it back unchanged: the byte coders on incompressible codec output.
TEST_P(CodecBoundSweep, ErrorBoundHeld) {
  const auto& [codec_name, signal, eb] = GetParam();
  const auto plus = codec_name.find('+');
  const auto codec = cp::make_codec(codec_name.substr(0, plus));
  const auto xs = make_signal(signal, 6000);
  const auto stream = codec->encode(xs, eb);
  if (plus != std::string::npos) {
    const bool lzss = codec_name.substr(plus + 1) == "lzss";
    EXPECT_EQ(lzss ? cp::lzss_decode(cp::lzss_encode(stream))
                   : cp::huffman_decode(cp::huffman_encode(stream)),
              stream);
  }
  const auto dec = codec->decode(stream);
  ASSERT_EQ(dec.size(), xs.size());
  EXPECT_LE(cu::max_abs_error(xs, dec), eb)
      << codec_name << " on " << signal << " eb=" << eb;
}

std::string codec_bound_name(
    const ::testing::TestParamInfo<CodecBoundSweep::ParamType>& param_info) {
  std::string c = std::get<0>(param_info.param);
  std::replace(c.begin(), c.end(), '+', '_');
  return c + "_" + std::get<1>(param_info.param) + "_e" +
         std::to_string(std::lround(-std::log10(std::get<2>(param_info.param))));
}

INSTANTIATE_TEST_SUITE_P(
    CodecsSignalsBounds, CodecBoundSweep,
    ::testing::Combine(::testing::Values("zfp", "sz", "zfp+lzss", "sz+huffman"),
                       ::testing::Values("smooth", "noisy", "spiky", "steps",
                                         "tiny"),
                       ::testing::Values(1e-1, 1e-4, 1e-8)),
    codec_bound_name);

// The mixed-exponent signal at bounds above its blocks' fixed-point quantum
// and below it, where only a raw block holds the small values.
INSTANTIATE_TEST_SUITE_P(
    MixedExponent, CodecBoundSweep,
    ::testing::Combine(::testing::Values("zfp", "sz", "zfp+lzss", "sz+huffman"),
                       ::testing::Values("mixed"),
                       ::testing::Values(1e-1, 1e-4, 1e-8, 1e-12, 1e-15)),
    codec_bound_name);

// ------------------------------------------------------ zfp plane tightness --

namespace {

constexpr std::size_t kZfpBlock = cp::detail::kZfpBlock;

/// What the reference coded for one block, and whether the old decoder's
/// reconstruction of it stayed within the bound.
struct ReferenceZfpBlock {
  std::size_t values = 0;
  bool raw = false;
  int coded_planes = 0;
  bool held = true;
};

struct ReferenceZfp {
  std::size_t stream_bytes = 0;
  std::vector<ReferenceZfpBlock> blocks;
};

/// zfp_encode as it was before each block stored its lowest plane: the floor
/// was derived from the bound, floor(log2(tol * 2^(60 - emax))) minus four
/// safety planes argued from the inverse lifting's 1.5^6 amplification, and
/// the decoder re-derived it from the bound in the stream header. Kept
/// verbatim as the tightness reference for the verified encoder; the only
/// addition is the per-block record, whose `held` rebuilds the block as the
/// old decoder did.
class ReferenceZfpEncoder {
 public:
  static ReferenceZfp encode(std::span<const double> values, double error_bound) {
    cu::ByteWriter header;
    header.put_varint(values.size());
    header.put(error_bound);
    cu::ByteWriter block_meta;
    cu::BitWriter bits;
    ReferenceZfp out;
    for (std::size_t off = 0; off < values.size(); off += kZfpBlock) {
      const std::size_t n = std::min(kZfpBlock, values.size() - off);
      out.blocks.push_back(
          encode_block(values.subspan(off, n), error_bound, block_meta, bits));
    }
    header.put_vector(block_meta.bytes());
    header.put_vector(bits.finish());
    out.stream_bytes = header.take().size();
    return out;
  }

 private:
  static constexpr int kQBits = 60;
  static constexpr int kSafetyPlanes = 4;

  static int min_plane(double tolerance, int emax) {
    if (!(tolerance > 0.0)) return 0;
    const double tol_q = std::ldexp(tolerance, kQBits - emax);
    if (tol_q <= 1.0) return 0;
    const int p = static_cast<int>(std::floor(std::log2(tol_q))) - kSafetyPlanes;
    return std::clamp(p, 0, 62);
  }

  static ReferenceZfpBlock encode_block(std::span<const double> vals,
                                        double tolerance, cu::ByteWriter& out,
                                        cu::BitWriter& bits) {
    ReferenceZfpBlock block;
    block.values = vals.size();
    double maxabs = 0.0;
    bool finite = true;
    for (double v : vals) {
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
      maxabs = std::max(maxabs, std::abs(v));
    }
    if (!finite) {
      out.put(std::uint8_t{2});
      out.put_bytes(vals.data(), vals.size() * sizeof(double));
      block.raw = true;
      return block;
    }
    if (maxabs == 0.0) {
      out.put(std::uint8_t{0});
      return block;
    }
    out.put(std::uint8_t{1});
    const int emax = std::ilogb(maxabs) + 1;
    out.put(static_cast<std::int16_t>(emax));

    std::array<std::int64_t, kZfpBlock> q{};
    const double scale = std::ldexp(1.0, kQBits - emax);
    for (std::size_t i = 0; i < kZfpBlock; ++i) {
      const double v = i < vals.size() ? vals[i] : vals.back();
      q[i] = std::llround(v * scale);
    }
    cp::detail::forward_transform64(q.data());

    std::array<std::uint64_t, kZfpBlock> u{};
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < kZfpBlock; ++i) {
      u[i] = static_cast<std::uint64_t>(q[i] < 0 ? -q[i] : q[i]);
      any |= u[i];
    }
    const int top_plane = any ? 63 - std::countl_zero(any) : 0;
    const int pmin = min_plane(tolerance, emax);
    out.put(static_cast<std::int8_t>(top_plane));

    std::array<bool, kZfpBlock> sig{};
    auto emit_coeff_bit = [&](std::size_t i, int p) {
      const bool b = (u[i] >> p) & 1u;
      bits.write_bit(b);
      if (b && !sig[i]) {
        bits.write_bit(q[i] < 0);
        sig[i] = true;
      }
      return b;
    };
    std::size_t prefix = 0;
    for (int p = top_plane; p >= pmin; --p) {
      for (std::size_t i = 0; i < prefix; ++i) emit_coeff_bit(i, p);
      std::size_t i = prefix;
      while (i < kZfpBlock) {
        bool has = false;
        for (std::size_t j = i; j < kZfpBlock; ++j) {
          if ((u[j] >> p) & 1u) {
            has = true;
            break;
          }
        }
        bits.write_bit(has);
        if (!has) break;
        while (!emit_coeff_bit(i++, p)) {
        }
        prefix = i;
      }
    }
    block.coded_planes = std::max(0, top_plane - pmin + 1);

    // The old decoder: magnitudes down to pmin, signs, inverse lifting, scale.
    std::array<std::int64_t, kZfpBlock> rec{};
    const std::uint64_t keep = pmin < 64 ? ~std::uint64_t{0} << pmin : 0;
    for (std::size_t i = 0; i < kZfpBlock; ++i) {
      const auto mag = static_cast<std::int64_t>(u[i] & keep);
      rec[i] = q[i] < 0 ? -mag : mag;
    }
    cp::detail::inverse_transform64(rec.data());
    const double inv_scale = std::ldexp(1.0, emax - kQBits);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      block.held = block.held &&
                   std::abs(static_cast<double>(rec[i]) * inv_scale - vals[i]) <=
                       tolerance;
    }
    return block;
  }
};

/// How the verified stream stored a block.
enum class ZfpKind { kZero, kRaw, kLifted, kRice };

/// The verified stream's block metadata, after its value count and error
/// bound: a mode byte (0 all zero, 1 raw, 2 + p lifted down to plane p,
/// 124 + k quantized and Rice-coded with parameter k), then emax and top
/// plane for a lifted block or the values for a raw one.
struct VerifiedZfpBlock {
  ZfpKind kind = ZfpKind::kZero;
  int coded_planes = 0;  // lifted
  int rice_k = -1;       // quantized
};

constexpr int kZfpRiceMode = 124;

std::vector<VerifiedZfpBlock> parse_zfp_blocks(cu::BytesView stream) {
  cu::ByteReader in(stream);
  const auto count = in.get_varint();
  in.get<double>();  // the error bound
  const auto meta_bytes = in.get_vector<std::byte>();
  cu::ByteReader meta(meta_bytes);
  std::vector<VerifiedZfpBlock> blocks;
  for (std::size_t off = 0; off < count; off += kZfpBlock) {
    const std::size_t n = std::min<std::size_t>(kZfpBlock, count - off);
    VerifiedZfpBlock block;
    const int mode = meta.get<std::uint8_t>();
    if (mode == 1) {
      meta.get_bytes(n * sizeof(double));
      block.kind = ZfpKind::kRaw;
    } else if (mode >= kZfpRiceMode) {
      block.kind = ZfpKind::kRice;
      block.rice_k = mode - kZfpRiceMode;
    } else if (mode >= 2) {
      block.kind = ZfpKind::kLifted;
      meta.get<std::int16_t>();
      const int top_plane = meta.get<std::int8_t>();
      block.coded_planes = top_plane - (mode - 2) + 1;
    }
    blocks.push_back(block);
  }
  return blocks;
}

/// Blocks of one kind in a zfp stream.
std::size_t count_kind(cu::BytesView stream, ZfpKind kind) {
  const auto blocks = parse_zfp_blocks(stream);
  return static_cast<std::size_t>(
      std::count_if(blocks.begin(), blocks.end(),
                    [kind](const VerifiedZfpBlock& b) { return b.kind == kind; }));
}

/// Tallies of one tightness run: lifted blocks by planes saved against the
/// reference, quantized blocks, and raw fallbacks on blocks whose bound the
/// reference broke.
struct PlaneTally {
  std::map<int, std::size_t> saved;
  std::size_t blocks = 0;
  std::size_t rice = 0;
  std::size_t reference_broke = 0;
  std::size_t raw_fallbacks = 0;

  void print(const std::string& what) const {
    const auto share = [this](std::size_t count) {
      return 100.0 * static_cast<double>(count) / static_cast<double>(blocks);
    };
    std::cout << what << ": " << blocks << " blocks, " << rice
              << " quantized (" << share(rice) << "%); lifted blocks by "
              << "planes kept below the analytic floor's count:\n";
    for (const auto& [planes, count] : saved) {
      std::cout << "  " << planes << " fewer: " << count << " ("
                << share(count) << "%)\n";
    }
    std::cout << "  reference broke the bound on " << reference_broke
              << ", raw fallbacks " << raw_fallbacks << "\n";
  }
};

/// Encodes `values` both ways and checks that the verified encoder codes no
/// more planes than the reference on every lifted block the reference kept
/// within the bound (a quantized block is not comparable plane for plane),
/// that it stores raw exactly the blocks the reference did, and that its
/// stream is no larger but for the raw blocks that replace ones the
/// reference broke.
void expect_tighter_than_reference(std::span<const double> values, double eb,
                                   const std::string& context,
                                   PlaneTally& tally) {
  const auto reference = ReferenceZfpEncoder::encode(values, eb);
  const auto stream = cp::zfp_encode(values, eb);
  const auto blocks = parse_zfp_blocks(stream);
  ASSERT_EQ(blocks.size(), reference.blocks.size()) << context;
  std::size_t allowance = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto& ref = reference.blocks[b];
    const auto& got = blocks[b];
    ++tally.blocks;
    if (got.kind == ZfpKind::kLifted) {
      EXPECT_GE(got.coded_planes, 1) << context << " block " << b;
    }
    if (got.kind == ZfpKind::kRice) ++tally.rice;
    if (!ref.held) {
      ++tally.reference_broke;
      if (got.kind == ZfpKind::kRaw) {
        ++tally.raw_fallbacks;
        allowance += 1 + ref.values * sizeof(double);
      }
      continue;
    }
    EXPECT_EQ(got.kind == ZfpKind::kRaw, ref.raw) << context << " block " << b;
    if (got.kind == ZfpKind::kLifted) {
      EXPECT_LE(got.coded_planes, ref.coded_planes) << context << " block " << b;
      ++tally.saved[ref.coded_planes - got.coded_planes];
    }
  }
  EXPECT_LE(stream.size(), reference.stream_bytes + allowance) << context;
}

/// One benchmark-size timestep's deltas (XGC1 plane, seed 5000, 4 levels,
/// step 2, the uniform Estimate, each taken against the input's coarser
/// level), each level in Morton order and cut into 8 chunks, finest level
/// first: a fixed codec input shaped like the benchmark's write, whose own
/// deltas now come from the gradient Estimate and the writers' closed loop.
const std::vector<cm::Field>& xgc_delta_chunks() {
  static const std::vector<cm::Field> chunks = [] {
    canopus::sim::XgcOptions xopt;
    xopt.seed = 5000;
    const auto ds = canopus::sim::make_xgc_dataset(xopt);
    cm::CascadeOptions copt;
    copt.levels = 4;
    copt.step = 2.0;
    const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
    const auto mode = cc::EstimateMode::kUniformThirds;
    constexpr std::size_t kChunks = 8;
    std::vector<cm::Field> out;
    for (std::size_t l = 0; l + 1 < cascade.level_count(); ++l) {
      const auto& fine = cascade.levels[l];
      const auto& coarse = cascade.levels[l + 1];
      const auto mapping = cc::build_mapping(fine.mesh, coarse.mesh);
      const auto delta = cc::compute_delta(coarse.mesh, coarse.values,
                                           fine.mesh.vertices(), fine.values,
                                           mapping, mode);
      const auto order = cc::cached_spatial_order(fine.mesh);
      cm::Field ordered(delta.size());
      for (std::size_t pos = 0; pos < order->size(); ++pos) {
        ordered[pos] = delta[(*order)[pos]];
      }
      for (std::size_t c = 0; c < kChunks; ++c) {
        const std::size_t start = ordered.size() * c / kChunks;
        const std::size_t stop = ordered.size() * (c + 1) / kChunks;
        out.emplace_back(ordered.begin() + static_cast<std::ptrdiff_t>(start),
                         ordered.begin() + static_cast<std::ptrdiff_t>(stop));
      }
    }
    return out;
  }();
  return chunks;
}

}  // namespace

TEST(ZfpPlaneTightness, SweepSignalsNeverLargerThanAnalyticFloor) {
  PlaneTally tally;
  for (const char* signal :
       {"smooth", "noisy", "spiky", "steps", "tiny", "mixed"}) {
    const auto xs = make_signal(signal, 6000);
    for (const double eb : {1e-1, 1e-4, 1e-8, 1e-12, 1e-15}) {
      expect_tighter_than_reference(
          xs, eb,
          std::string(signal) + " eb=1e-" +
              std::to_string(std::lround(-std::log10(eb))),
          tally);
    }
  }
  tally.print("sweep signals");
  // The analytic floor breaks only blocks whose fixed-point quantum is
  // coarser than the bound (the mixed signal's below 1e-8, the spiky
  // signal's spike blocks at 1e-15); each of those is stored raw instead.
  EXPECT_GT(tally.reference_broke, 0u);
  EXPECT_EQ(tally.raw_fallbacks, tally.reference_broke);
}

// One benchmark-size timestep's deltas at the benchmark's 1e-4.
TEST(ZfpPlaneTightness, XgcDeltaPayloadNeverLargerThanAnalyticFloor) {
  PlaneTally tally;
  const auto& chunks = xgc_delta_chunks();
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    expect_tighter_than_reference(chunks[c], 1e-4,
                                  "level " + std::to_string(c / 8) + " chunk " +
                                      std::to_string(c % 8),
                                  tally);
  }
  tally.print("xgc deltas");
  EXPECT_EQ(tally.reference_broke, 0u);
}

// ----------------------------------------------------------- zfp candidates --

// The encoder chooses between a block's lifted and quantized codings by the
// payload bits it counts without coding either; the count must be exactly
// what coding the candidate writes.
TEST(ZfpCandidates, CountedBitsEqualEmittedBits) {
  std::size_t compared[2] = {0, 0};
  for (const char* signal :
       {"smooth", "noisy", "spiky", "steps", "tiny", "mixed"}) {
    const auto xs = make_signal(signal, 6000);
    for (const double eb : {1e-1, 1e-4, 1e-8, 1e-12, 1e-15, 0.0}) {
      for (std::size_t off = 0; off < xs.size(); off += kZfpBlock) {
        const auto block = std::span<const double>(xs).subspan(
            off, std::min(kZfpBlock, xs.size() - off));
        const auto bits = cp::detail::zfp_candidate_bits(block, eb);
        for (std::size_t k = 0; k < 2; ++k) {
          if (!bits[k].held) continue;
          ++compared[k];
          EXPECT_EQ(bits[k].counted, bits[k].emitted)
              << signal << " eb=" << eb << " block " << off / kZfpBlock
              << (k == 0 ? " lifted" : " quantized");
        }
      }
    }
  }
  EXPECT_GT(compared[0], 2000u);
  EXPECT_GT(compared[1], 1500u);
}

namespace {

/// A quantized block's payload bits at Rice parameter k, recounted from its
/// values: each index, q = round(v / (2 eb)) zigzagged to z, costs z >> k
/// bits of unary, its terminating 1 and k low bits.
std::size_t rice_bits_at(std::span<const double> block, double eb, int k) {
  std::size_t bits = 0;
  for (const double v : block) {
    const auto q = static_cast<std::int64_t>(std::round(v / (2.0 * eb)));
    const std::uint64_t z = q < 0 ? 2 * static_cast<std::uint64_t>(-q) - 1
                                  : 2 * static_cast<std::uint64_t>(q);
    bits += (z >> k) + 1 + static_cast<std::size_t>(k);
  }
  return bits;
}

}  // namespace

// The k a quantized block stores codes its indices in no more bits than
// k - 1 or k + 1 would, recounted from the values, and the encoder counted
// exactly that recount: over the sweep signals and the XGC delta chunks.
TEST(ZfpCandidates, RiceParameterCostsNoMoreThanItsNeighbours) {
  std::size_t checked = 0;
  const auto check = [&](std::span<const double> xs, double eb,
                         const std::string& what) {
    const auto blocks = parse_zfp_blocks(cp::zfp_encode(xs, eb));
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (blocks[b].kind != ZfpKind::kRice) continue;
      const auto block = xs.subspan(b * kZfpBlock,
                                    std::min(kZfpBlock, xs.size() - b * kZfpBlock));
      const int k = blocks[b].rice_k;
      const std::size_t bits = rice_bits_at(block, eb, k);
      const std::string context =
          what + " block " + std::to_string(b) + " k=" + std::to_string(k);
      EXPECT_EQ(cp::detail::zfp_candidate_bits(block, eb)[1].counted, bits)
          << context;
      if (k > 0) {
        EXPECT_LE(bits, rice_bits_at(block, eb, k - 1)) << context;
      }
      EXPECT_LE(bits, rice_bits_at(block, eb, k + 1)) << context;
      ++checked;
    }
  };
  for (const char* signal :
       {"smooth", "noisy", "spiky", "steps", "tiny", "mixed"}) {
    const auto xs = make_signal(signal, 6000);
    for (const double eb : {1e-1, 1e-4, 1e-8, 1e-12, 1e-15}) {
      check(xs, eb, std::string(signal) + " eb=" + std::to_string(eb));
    }
  }
  const auto& chunks = xgc_delta_chunks();
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    check(chunks[c], 1e-4, "xgc delta chunk " + std::to_string(c));
  }
  EXPECT_GT(checked, 1300u);
}

// Deltas code mostly plain (untransformed: quantized and Rice-coded); smooth
// data codes mostly through the lifting, at a coarse, a middle and a fine
// bound.
TEST(ZfpCandidates, XgcDeltasCodeMostlyPlainSmoothSignalMostlyLifted) {
  std::size_t rice = 0;
  std::size_t blocks = 0;
  for (const auto& chunk : xgc_delta_chunks()) {
    const auto stream = cp::zfp_encode(chunk, 1e-4);
    rice += count_kind(stream, ZfpKind::kRice);
    blocks += parse_zfp_blocks(stream).size();
  }
  EXPECT_GE(10 * rice, 9 * blocks) << rice << " of " << blocks;

  for (const double eb : {1e-1, 1e-4, 1e-8}) {
    const auto smooth = cp::zfp_encode(make_signal("smooth", 6000), eb);
    const std::size_t lifted = count_kind(smooth, ZfpKind::kLifted);
    const std::size_t smooth_blocks = parse_zfp_blocks(smooth).size();
    EXPECT_GE(10 * lifted, 9 * smooth_blocks)
        << "eb=" << eb << ": " << lifted << " of " << smooth_blocks;
  }
}

// The bytes both of those streams code to, as Huffman.StreamBytesArePinned
// pins its own: the XGC delta chunks' streams back to back, and the smooth
// signal's. Both inputs come through std::sin and friends, so the pins
// assume a libm that reproduces them bit for bit; a mismatch on another libm
// is a determinism finding before it is a codec change.
TEST(ZfpCandidates, StreamBytesArePinned) {
  cu::Bytes deltas;
  for (const auto& chunk : xgc_delta_chunks()) {
    const auto stream = cp::zfp_encode(chunk, 1e-4);
    deltas.insert(deltas.end(), stream.begin(), stream.end());
  }
  const auto smooth = cp::zfp_encode(make_signal("smooth", 6000), 1e-4);
  EXPECT_EQ(deltas.size(), 32608u);
  EXPECT_EQ(cu::Crc32::compute(deltas), 0xc7f1a658u);
  EXPECT_EQ(smooth.size(), 10350u);
  EXPECT_EQ(cu::Crc32::compute(smooth), 0xb979f37au);
}

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
    const auto delta = cc::compute_delta(coarse.mesh, coarse.values,
                                         fine.mesh.vertices(), fine.values,
                                         mapping, mode);
    const auto restored = cc::restore_level(
        coarse.mesh, coarse.values, fine.mesh.vertices(), delta, mapping, mode);
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
                                         cc::EstimateMode::kGradient)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             cc::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------- point-location equivalence --

namespace {

/// PointLocator as it was before its grid became CSR arrays and its
/// nearest-triangle fallback a ring search: one vector per grid cell and a
/// linear scan over every triangle. Kept as the reference the locator must
/// match bit for bit. Its fallback weighs each triangle by the rule of
/// mesh::location_weights: raw weights when the point lies in the triangle
/// within the 1e-10 tolerance, clamped and renormalized otherwise.
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
      constexpr double eps = 1e-10;
      if (!(w[0] >= -eps && w[1] >= -eps && w[2] >= -eps)) {
        for (double& wi : w) wi = std::max(0.0, wi);
        const double sum = w[0] + w[1] + w[2];
        if (sum <= 0.0) continue;
        for (double& wi : w) wi /= sum;
      }
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
  EXPECT_LE(cu::max_abs_error(field, reader.values()),
            canopus::test::level_bound(config.error_bound, field));
}

INSTANTIATE_TEST_SUITE_P(
    EstimatePlacement, RoundTripSweep,
    ::testing::Combine(::testing::Values(cc::EstimateMode::kUniformThirds,
                                         cc::EstimateMode::kBarycentric,
                                         cc::EstimateMode::kGradient),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return cc::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_tiered" : "_flat");
    });

// The writer takes every delta against the level the reader restores, so
// every level of a full refine lies within the per-product bound of the
// input's level: no codec error compounds down the chain. Three datasets
// (seeded from CANOPUS_TEST_SEED) x three Estimates x two lossy codecs x
// 2-5 levels x 1 and 8 delta chunks, at eps = 1e-4 of each field's range.
// The allowance beyond eps is ct::level_bound's: the rounding of the
// writer's one subtraction and the restore's one addition. With 8 chunks a
// stack of regional steps toward a box also restores every vertex inside
// it bitwise as the full refine does, at every level.
TEST(ClosedLoopSweep, EveryLevelOfAFullRefineWithinTheBound) {
  const std::uint64_t base = canopus::test::test_seed();
  double worst = 0.0;  // largest error / eps over every level of every case
  std::size_t cases = 0;
  std::size_t roi_values = 0;     // vertices checked inside the region
  std::size_t partial_steps = 0;  // regional steps that skipped chunks
  for (const auto& ds : canopus::sim::all_datasets(0.05, 7 + base)) {
    const auto [lo, hi] = std::minmax_element(ds.values.begin(), ds.values.end());
    const double eps = 1e-4 * (*hi - *lo);
    // A box a third of the domain wide, off centre.
    const auto bounds = ds.mesh.bounds();
    const cm::Aabb roi{
        {bounds.lo.x + 0.5 * bounds.width(), bounds.lo.y + 0.3 * bounds.height()},
        {bounds.lo.x + 0.8 * bounds.width(), bounds.lo.y + 0.6 * bounds.height()}};
    for (std::size_t levels = 2; levels <= 5; ++levels) {
      cm::CascadeOptions copt;
      copt.levels = levels;
      const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
      for (const auto mode : {cc::EstimateMode::kUniformThirds,
                              cc::EstimateMode::kBarycentric,
                              cc::EstimateMode::kGradient}) {
        for (const char* codec : {"zfp", "sz"}) {
          for (const std::uint32_t chunks : {1u, 8u}) {
            SCOPED_TRACE(ds.name + " levels " + std::to_string(levels) + " " +
                         cc::to_string(mode) + " " + codec + " chunks " +
                         std::to_string(chunks) + " (CANOPUS_TEST_SEED=" +
                         std::to_string(base) + ")");
            cs::StorageHierarchy tiers(
                {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
            cc::RefactorConfig config;
            config.levels = levels;
            config.codec = codec;
            config.error_bound = eps;
            config.estimate = mode;
            config.delta_chunks = chunks;
            cc::refactor_and_write(tiers, "sweep.bp", "v", cascade, config);
            cc::ProgressiveReader reader(tiers, "sweep.bp", "v");
            cc::ProgressiveReader regional(tiers, "sweep.bp", "v");
            for (auto l = static_cast<std::uint32_t>(levels); l-- > 0;) {
              if (l + 1 < levels) {
                reader.refine_to(l);
                regional.refine_region(roi);
                ASSERT_EQ(regional.current_level(), l);
                if (regional.partially_refined()) ++partial_steps;
              }
              const auto& level = cascade.levels[l].values;
              const double err = cu::max_abs_error(level, reader.values());
              EXPECT_LE(err, canopus::test::level_bound(eps, level))
                  << "level " << l;
              worst = std::max(worst, err / eps);
              const auto& mesh = cascade.levels[l].mesh;
              for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
                const auto p = mesh.vertex(v);
                if (p.x < roi.lo.x || p.x > roi.hi.x || p.y < roi.lo.y ||
                    p.y > roi.hi.y) {
                  continue;
                }
                ++roi_values;
                if (std::memcmp(&regional.values()[v], &reader.values()[v],
                                sizeof(double)) != 0) {
                  ADD_FAILURE() << "level " << l << " vertex " << v
                                << " differs inside the region";
                  break;
                }
              }
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 144u);
  EXPECT_GT(roi_values, 0u);
  EXPECT_GT(partial_steps, 0u);
  std::cout << "[closed loop] " << cases
            << " cases, largest level error " << worst << " eps; "
            << partial_steps << " regional steps skipped chunks, "
            << roi_values << " region values checked\n";
}

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
