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
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cp = canopus::compress;
namespace cs = canopus::storage;
namespace cu = canopus::util;

namespace {

cm::TriMesh make_mesh(const std::string& family) {
  if (family == "rect") return cm::make_rect_mesh(28, 28, 1.0, 1.0, 0.2, 11);
  if (family == "annulus") {
    return cm::make_annulus_mesh(12, 64, 0.5, 1.0, 0.15, 11);
  }
  if (family == "disk") return cm::make_disk_mesh(12, 56, 1.0, 0.15, 11);
  if (family == "airfoil") {
    return cm::make_airfoil_mesh(36, 24, 10.0, 6.0, 3.5, 3.0, 2.2, 0.8, 0.1, 11);
  }
  if (family == "shuffled") {
    return cm::shuffle_vertices(cm::make_rect_mesh(28, 28, 1.0, 1.0, 0.2, 11), 5);
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
                          cm::EdgePriority::kRandom)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param))) +
             (std::get<2>(param_info.param) == cm::EdgePriority::kShortestFirst
                  ? "_short"
                  : "_rand");
    });

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
