// Tests for the Canopus core: delta calculation / restoration (Algorithms 2
// and 3), the refactor-and-write pipeline, tiered placement, and the
// progressive reader.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "compress/fpc.hpp"
#include "compress/huffman.hpp"
#include "core/canopus.hpp"
#include "mesh/cascade.hpp"
#include "mesh/generators.hpp"
#include "mesh/validate.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "reference_mapping.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/bitstream.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "test_support.hpp"

namespace cc = canopus::core;
namespace cz = canopus::compress;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ca = canopus::adios;
namespace cu = canopus::util;
namespace ct = canopus::test;

namespace {

cm::Field smooth_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

cs::StorageHierarchy big_two_tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(256 << 20), cs::lustre_spec(1 << 30)});
}

/// `body` followed by its CRC-32: a kMesh block's seal.
cu::Bytes sealed(cu::BytesView body) {
  cu::ByteWriter w;
  w.put_bytes(body);
  w.put(cu::Crc32::compute(body));
  return w.take();
}

/// A kMesh block assembled section by section in the layout that
/// core/geometry_cache.hpp documents, so a malformed case states exactly
/// what its block holds. The defaults are the block of mesh_block_mesh().
struct MeshBlockSpec {
  std::uint64_t n = 5;
  std::uint64_t triangles = 2;
  std::vector<std::uint64_t> perm{0, 1, 2, 3, 4};
  std::vector<std::uint8_t> symbols{0, 0, 0, 1, 3, 0};
  std::vector<std::uint64_t> distances;
  std::vector<double> x{0.0, 1.0, 1.0, 0.0, 2.0};
  std::vector<double> y{0.0, 0.0, 1.0, 1.0, 2.0};

  cu::Bytes body() const {
    cu::ByteWriter w;
    w.put_varint(n);
    w.put_varint(triangles);
    cu::BitWriter ids;
    const auto width = n > 1 ? static_cast<unsigned>(std::bit_width(n - 1)) : 0u;
    for (const auto id : perm) ids.write_bits(id, width);
    w.put_bytes(ids.finish());
    const auto section = [&w](const cu::Bytes& bytes) {
      w.put_varint(bytes.size());
      w.put_bytes(bytes);
    };
    cu::Bytes corner;
    for (const auto c : symbols) corner.push_back(static_cast<std::byte>(c));
    section(cz::huffman_encode(corner));
    cu::ByteWriter d;
    for (const auto v : distances) d.put_varint(v);
    section(cz::huffman_encode(d.view()));
    section(cz::fpc_encode(x));
    section(cz::fpc_encode(y));
    return w.take();
  }
  cu::Bytes block() const { return sealed(body()); }
};

/// Two triangles over four of five vertices; vertex 4 is unreferenced.
cm::TriMesh mesh_block_mesh() {
  return cm::TriMesh({{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {2.0, 2.0}},
                     {{{0, 1, 2}}, {{0, 2, 3}}});
}

}  // namespace

// ------------------------------------------------------- delta / restore --

class DeltaRestore : public ::testing::TestWithParam<cc::EstimateMode> {};

TEST_P(DeltaRestore, ExactInverseWithLosslessDeltas) {
  // restore(compute_delta(...)) must reproduce the fine level bit-exactly
  // when deltas are not further compressed — the core Canopus invariant.
  const auto fine_mesh = cm::make_annulus_mesh(10, 60, 0.5, 1.0, 0.15, 3);
  const auto fine_values = smooth_field(fine_mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(fine_mesh, fine_values, opt);

  const auto mapping = cc::build_mapping(fine_mesh, coarse.mesh);
  const auto delta = cc::compute_delta(coarse.mesh, coarse.values,
                                       fine_mesh.vertices(), fine_values,
                                       mapping, GetParam());
  const auto restored =
      cc::restore_level(coarse.mesh, coarse.values, fine_mesh.vertices(),
                        delta, mapping, GetParam());
  ASSERT_EQ(restored.size(), fine_values.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored[i], fine_values[i]) << "vertex " << i;
  }
}

// Containers of every Estimate mode hold the deltas and restore the fields
// that the reference mapping (the locator's three double weights per fine
// vertex) gives, bit for bit, on the GeometryCache path and the on-demand
// path.
TEST_P(DeltaRestore, WriterDeltasMatchReferenceMapping) {
  // The raw codec stores each computed delta as it is. The writer takes
  // each delta against the coarser level as the reader restores it, which
  // the reference restores from the stored base and deltas.
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "raw";
  config.estimate = GetParam();
  config.delta_chunks = 4;
  cm::CascadeOptions copt;
  copt.levels = config.levels;
  const auto cascade = cm::build_cascade(mesh, smooth_field(mesh), copt);
  auto tiers = big_two_tiers();
  cc::refactor_and_write(tiers, "w.bp", "v", cascade, config);
  const ca::BpReader reader(tiers, "w.bp");
  const auto restored = ct::reference_levels(tiers, "w.bp", "v", "v", GetParam());
  for (std::uint32_t l = 0; l + 1 < config.levels; ++l) {
    const auto& fine = cascade.levels[l];
    const auto& coarse = cascade.levels[l + 1];
    const auto expected = ct::reference_delta(
        coarse.mesh, restored[l + 1], fine.values,
        ct::reference_build_mapping(fine.mesh, coarse.mesh), GetParam());
    EXPECT_TRUE(ct::same_bits(ct::stored_delta(reader, "v", l, fine.mesh),
                              expected))
        << "level " << l;
  }
}

TEST_P(DeltaRestore, RestoredLevelsMatchReferenceOnEveryReadPath) {
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  for (const std::uint32_t chunks : {1u, 4u}) {
    SCOPED_TRACE("chunks " + std::to_string(chunks));
    auto tiers = big_two_tiers();
    cc::RefactorConfig config;
    config.levels = 3;
    config.codec = "zfp";
    config.error_bound = 1e-4;
    config.estimate = GetParam();
    config.delta_chunks = chunks;
    cc::refactor_and_write(tiers, "r.bp", "v", mesh, smooth_field(mesh), config);
    const auto expected =
        ct::reference_levels(tiers, "r.bp", "v", "v", GetParam());
    const auto geometry = cc::GeometryCache::load(tiers, "r.bp", "v");
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      cc::ReaderOptions options;
      options.parallel.threads = threads;
      cc::ProgressiveReader cached(tiers, "r.bp", "v", &geometry, options);
      cc::ProgressiveReader on_demand(tiers, "r.bp", "v", nullptr, options);
      for (std::uint32_t l = config.levels; l-- > 0;) {
        cached.refine_to(l);
        on_demand.refine_to(l);
        EXPECT_TRUE(ct::same_bits(cached.values(), expected[l]))
            << "level " << l;
        EXPECT_TRUE(ct::same_bits(on_demand.values(), expected[l]))
            << "level " << l;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimateModes, DeltaRestore,
                         ::testing::Values(cc::EstimateMode::kUniformThirds,
                                           cc::EstimateMode::kBarycentric,
                                           cc::EstimateMode::kGradient),
                         [](const auto& p) { return cc::to_string(p.param); });

TEST(Delta, DeltasAreSmootherThanLevels) {
  // The Fig. 4/5 premise: the delta stream is less variable than the level
  // data it reconstructs, so it compresses better.
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, values, opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  const auto delta =
      cc::compute_delta(coarse.mesh, coarse.values, mesh.vertices(), values,
                        mapping, cc::EstimateMode::kBarycentric);
  cu::RunningStats level_stats, delta_stats;
  level_stats.add(values);
  delta_stats.add(delta);
  EXPECT_LT(delta_stats.stddev(), level_stats.stddev());
}

TEST(Delta, BarycentricBeatsUniformOnLinearField) {
  // A linear field is predicted exactly by barycentric interpolation, so its
  // deltas vanish; uniform 1/3 weights leave residuals.
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.2, 5);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 4.0 * p.x - 7.0 * p.y;
  }
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, f, opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  const auto d_bary =
      cc::compute_delta(coarse.mesh, coarse.values, mesh.vertices(), f, mapping,
                        cc::EstimateMode::kBarycentric);
  const auto d_unif =
      cc::compute_delta(coarse.mesh, coarse.values, mesh.vertices(), f, mapping,
                        cc::EstimateMode::kUniformThirds);
  cu::RunningStats bary, unif;
  for (double x : d_bary) bary.add(std::abs(x));
  for (double x : d_unif) unif.add(std::abs(x));
  EXPECT_LT(bary.mean(), unif.mean());
}

// compute_delta and restore_level under the gradient Estimate are the
// reference's, bit for bit, at 1 and 4 workers: the coarse gradients are
// summed in triangle order whatever the worker count.
TEST(Delta, GradientEstimateIsTheReferenceAtAnyWorkerCount) {
  for (const auto& ds : canopus::sim::all_datasets(0.1)) {
    SCOPED_TRACE(ds.name);
    cm::CascadeOptions copt;
    copt.levels = 3;
    const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
    for (std::size_t l = 0; l + 1 < copt.levels; ++l) {
      const auto& fine = cascade.levels[l];
      const auto& coarse = cascade.levels[l + 1];
      const auto reference = ct::reference_build_mapping(fine.mesh, coarse.mesh);
      const auto expected =
          ct::reference_delta(coarse.mesh, coarse.values, fine.values,
                              reference, cc::EstimateMode::kGradient);
      const auto mapping = cc::build_mapping(fine.mesh, coarse.mesh);
      for (const std::size_t threads : {1u, 4u}) {
        cu::ThreadPool pool(threads);
        const auto delta =
            cc::compute_delta(coarse.mesh, coarse.values, fine.mesh.vertices(),
                              fine.values, mapping, cc::EstimateMode::kGradient,
                              &pool);
        EXPECT_TRUE(ct::same_bits(delta, expected))
            << "level " << l << " threads " << threads;
        EXPECT_TRUE(ct::same_bits(
            cc::restore_level(coarse.mesh, coarse.values, fine.mesh.vertices(),
                              delta, mapping, cc::EstimateMode::kGradient,
                              &pool),
            ct::reference_restore(coarse.mesh, coarse.values, expected,
                                  reference, cc::EstimateMode::kGradient)))
            << "level " << l << " threads " << threads;
      }
    }
  }
}

// A linear field has the same gradient on every coarse triangle, and
// unclamped weights place their corners' centroid on the fine vertex, so
// the gradient terms cancel and the Estimate is the field itself: the
// deltas are rounding. Clamped weights (rim vertices outside the coarse
// mesh) project the vertex into its triangle, and the Taylor terms then
// extrapolate only part of the way.
TEST(Delta, GradientEstimateReproducesLinearFields) {
  const auto mesh = cm::make_annulus_mesh(16, 90, 0.5, 1.0, 0.15, 5);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 1.5 + 4.0 * p.x - 7.0 * p.y;
  }
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, f, opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  const auto delta =
      cc::compute_delta(coarse.mesh, coarse.values, mesh.vertices(), f, mapping,
                        cc::EstimateMode::kGradient);
  std::size_t unclamped = 0, clamped = 0;
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto& tri = coarse.mesh.triangle(mapping.triangle[v]);
    const auto w = cm::barycentric(mesh.vertex(v), coarse.mesh.vertex(tri.v[0]),
                                   coarse.mesh.vertex(tri.v[1]),
                                   coarse.mesh.vertex(tri.v[2]));
    if (!cm::within_triangle(w)) {
      ++clamped;
      continue;
    }
    ++unclamped;
    // |f| < 12 here: a few ulps of the values and the gradient terms.
    EXPECT_LE(std::abs(delta[v]), 1e-13) << "vertex " << v;
  }
  EXPECT_GT(unclamped, 0u);
  EXPECT_GT(clamped, 0u);
}

// Linear interpolation misses a quadratic's curvature; the gradient
// Estimate sees it, so its deltas are smaller.
TEST(Delta, GradientBeatsBarycentricOnQuadraticField) {
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.2, 5);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 3.0 * p.x * p.x - 2.0 * p.x * p.y + 5.0 * p.y * p.y;
  }
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, f, opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  cu::RunningStats bary, grad;
  for (const double d :
       cc::compute_delta(coarse.mesh, coarse.values, mesh.vertices(), f,
                         mapping, cc::EstimateMode::kBarycentric)) {
    bary.add(std::abs(d));
  }
  for (const double d :
       cc::compute_delta(coarse.mesh, coarse.values, mesh.vertices(), f,
                         mapping, cc::EstimateMode::kGradient)) {
    grad.add(std::abs(d));
  }
  EXPECT_LT(grad.mean(), 0.5 * bary.mean());
  EXPECT_LT(grad.max(), bary.max());
}

// The weights Estimate derives for a fine vertex, mesh::location_weights in
// the triangle the mapping names, are the weights PointLocator::locate
// gave it, bit for bit: on every level of 4-level cascades of the three
// datasets (rim vertices there take the nearest-triangle fallback) and of
// an unjittered grid. A vertex on a coarse edge or corner is an exact tie
// between the triangles that share it, which the locator breaks by id.
TEST(Delta, DerivedWeightsAreTheLocatorsBitwise) {
  auto meshes = canopus::sim::all_datasets(1.0);
  const auto grid = cm::make_rect_mesh(24, 24, 1.0, 1.0, 0.0, 1);
  meshes.push_back({"grid", "v", grid, smooth_field(grid)});
  for (const auto& ds : meshes) {
    SCOPED_TRACE(ds.name);
    cm::CascadeOptions copt;
    copt.levels = 4;
    const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
    std::size_t fallbacks = 0, ties = 0;
    for (std::size_t l = 0; l + 1 < copt.levels; ++l) {
      const auto& fine = cascade.levels[l].mesh;
      const auto& coarse = cascade.levels[l + 1].mesh;
      const cm::PointLocator locator(coarse);
      const auto mapping = cc::build_mapping(fine, coarse);
      ASSERT_EQ(mapping.size(), fine.vertex_count());
      for (cm::VertexId v = 0; v < fine.vertex_count(); ++v) {
        const auto loc = locator.locate(fine.vertex(v));
        ASSERT_EQ(mapping.triangle[v], loc.triangle) << "level " << l;
        const auto& tri = coarse.triangle(loc.triangle);
        const auto w = cm::location_weights(
            fine.vertex(v), coarse.vertex(tri.v[0]), coarse.vertex(tri.v[1]),
            coarse.vertex(tri.v[2]));
        ASSERT_EQ(std::memcmp(w.data(), loc.weights.data(), sizeof w), 0)
            << "level " << l << " vertex " << v;
        if (!loc.exact) ++fallbacks;
        if (loc.exact && std::find(w.begin(), w.end(), 0.0) != w.end()) {
          ++ties;
        }
      }
    }
    EXPECT_GT(ties, 0u);
    if (ds.name != "grid") {
      EXPECT_GT(fallbacks, 0u);
    }
  }
}

TEST(Delta, EstimateModeStringsRoundTrip) {
  for (auto mode : {cc::EstimateMode::kUniformThirds,
                    cc::EstimateMode::kBarycentric,
                    cc::EstimateMode::kGradient}) {
    EXPECT_EQ(cc::estimate_mode_from_string(cc::to_string(mode)), mode);
  }
  EXPECT_EQ(cc::RefactorConfig{}.estimate, cc::EstimateMode::kGradient);
  EXPECT_THROW(cc::estimate_mode_from_string("cubic"), canopus::Error);
  // The retired nearest-vertex Estimate is an unknown name like any other.
  EXPECT_THROW(cc::estimate_mode_from_string("nearest"), canopus::Error);
}

// ------------------------------------------------------------- refactorer --

TEST(Refactorer, WritesAllProductsAndLevels) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  const auto report = cc::refactor_and_write(tiers, "xgc.bp", "dpot", mesh,
                                             smooth_field(mesh), config);
  // base + 2 deltas.
  ASSERT_EQ(report.products.size(), 3u);
  EXPECT_EQ(report.products[0].name, "base");
  EXPECT_EQ(report.level_vertices.size(), 3u);
  EXPECT_GT(report.phases.get("decimation"), 0.0);
  EXPECT_GT(report.phases.get("io"), 0.0);
  EXPECT_LT(report.total_stored_bytes(), report.total_raw_bytes());

  ca::BpReader reader(tiers, "xgc.bp");
  const auto info = reader.inq_var("dpot");
  EXPECT_NE(info.block(ca::BlockKind::kBase, 2), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kDelta, 0), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kDelta, 1), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kMesh, 0), nullptr);
  EXPECT_EQ(info.levels(ca::BlockKind::kCollapseLog),
            (std::vector<std::uint32_t>{1, 2}));
  // Nothing else: readers derive the mappings from the geometry.
  EXPECT_EQ(info.blocks.size(), 6u);
  EXPECT_EQ(reader.attribute("codec"), std::optional<std::string>("zfp"));
}

TEST(Refactorer, TieredPlacementFollowsFig1) {
  // 3 levels over 3 tiers: base -> tier 0, delta1 -> tier 1, delta0 -> tier 2.
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64 << 20),
                              cs::ssd_spec(128 << 20),
                              cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.1, 13);
  cc::RefactorConfig config;
  config.levels = 3;
  const auto report = cc::refactor_and_write(tiers, "r.bp", "v", mesh,
                                             smooth_field(mesh), config);
  for (const auto& p : report.products) {
    if (p.name == "base") {
      EXPECT_EQ(p.tier, 0u);
    } else if (p.name == "delta1") {
      EXPECT_EQ(p.tier, 1u);
    } else if (p.name == "delta0") {
      EXPECT_EQ(p.tier, 2u);
    }
  }
}

TEST(Refactorer, ChunkTiersReportEveryChunkAndSlowestTier) {
  // Fastest-fit placement spills a chunk that no longer fits the fast tier and
  // lets a later, smaller chunk take the room left there; the product must
  // list every chunk's tier (matching the container index) and report the
  // slowest of them — not whichever tier the last chunk happened to get.
  const auto mesh = cm::make_rect_mesh(43, 43, 1.0, 1.0, 0.1, 13);
  // Flat where the last Morton chunk lies (x, y > 0.5), so that chunk codes
  // smaller than the others under any bounded codec and Estimate.
  auto values = smooth_field(mesh);
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    if (mesh.vertex(v).x > 0.5 && mesh.vertex(v).y > 0.5) values[v] = 1.0;
  }
  cc::RefactorConfig config;
  config.levels = 2;
  config.delta_chunks = 4;
  config.error_bound = 1e-6;
  config.tiered_placement = false;  // let fastest-fit place
  // Probe with room everywhere for the stored size of every block. The base
  // is written first (its replica goes below it), then delta chunks 0..3.
  std::size_t base = 0;
  std::vector<std::size_t> chunk(4, 0);
  {
    auto roomy = big_two_tiers();
    cc::refactor_and_write(roomy, "probe.bp", "v", mesh, values, config);
    ca::BpReader probe(roomy, "probe.bp");
    for (const auto& b : probe.inq_var("v").blocks) {
      const auto n = static_cast<std::size_t>(b.stored_bytes);
      if (b.kind == ca::BlockKind::kBase) base = n;
      if (b.kind == ca::BlockKind::kDelta) chunk.at(b.chunk) = n;
    }
  }
  // Tier 0 holds the base, the chunks before `spill` and the last chunk: each
  // chunk from `spill` to the one before the last is larger than the last, so
  // none fits the room the last one then fills.
  const std::size_t last = chunk.size() - 1;
  std::size_t spill = last;
  while (spill > 0 && chunk[spill - 1] > chunk[last]) --spill;
  ASSERT_LT(spill, last) << "the chunk before the last is no larger than it";
  std::size_t fast = base + chunk[last];
  std::vector<std::uint32_t> expected(chunk.size(), 1);
  expected[last] = 0;
  for (std::size_t c = 0; c < spill; ++c) {
    fast += chunk[c];
    expected[c] = 0;
  }
  cs::StorageHierarchy tiers({cs::tmpfs_spec(fast), cs::ssd_spec(64 << 20),
                              cs::lustre_spec(1 << 30)});
  const auto report =
      cc::refactor_and_write(tiers, "ff.bp", "v", mesh, values, config);

  ca::BpReader reader(tiers, "ff.bp");
  const auto info = reader.inq_var("v");
  for (const auto& p : report.products) {
    ASSERT_FALSE(p.chunk_tiers.empty()) << p.name;
    std::uint32_t slowest = 0;
    for (std::uint32_t t : p.chunk_tiers) slowest = std::max(slowest, t);
    EXPECT_EQ(p.tier, slowest) << p.name;
    if (p.name != "base") {
      ASSERT_EQ(p.chunk_tiers.size(), 4u);
      // Ground truth: the tier the hierarchy holds each chunk on.
      for (const auto& b : info.blocks) {
        if (b.kind == ca::BlockKind::kDelta && b.level == p.level) {
          EXPECT_EQ(tiers.find(b.object_key),
                    std::optional<std::size_t>(p.chunk_tiers[b.chunk]))
              << p.name << " chunk " << b.chunk;
        }
      }
      // The spill scatters the delta, and the last chunk is not the slowest.
      EXPECT_EQ(p.chunk_tiers, expected) << p.name;
      EXPECT_NE(p.tier, p.chunk_tiers.back()) << p.name;
    }
  }
}

TEST(Refactorer, LevelTakesItsHintedTierWhenItsStoredBytesFit) {
  // Level 0's Fig. 1 tier is tier 2, sized to hold exactly the level's
  // stored delta but not its raw delta bytes. Only StorageHierarchy::place
  // decides whether a block fits, with the bytes it stores, so the level
  // lands there.
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-3;
  const auto three_tiers = [](std::size_t slowest) {
    return cs::StorageHierarchy({cs::tmpfs_spec(64 << 20),
                                 cs::ssd_spec(64 << 20),
                                 cs::lustre_spec(slowest)});
  };
  const auto level0 = [](const ca::BlockRecord& b) {
    return b.level == 0 && b.kind == ca::BlockKind::kDelta;
  };
  std::size_t stored = 0;
  std::size_t raw_delta = 0;
  {
    auto roomy = three_tiers(1 << 30);
    cc::refactor_and_write(roomy, "p.bp", "v", mesh, values, config);
    ca::BpReader probe(roomy, "p.bp");
    for (const auto& b : probe.inq_var("v").blocks) {
      if (!level0(b)) continue;
      stored += static_cast<std::size_t>(b.stored_bytes);
      if (b.kind == ca::BlockKind::kDelta) {
        raw_delta += static_cast<std::size_t>(b.raw_bytes);
      }
    }
  }
  ASSERT_LT(stored, raw_delta);

  auto tiers = three_tiers(stored);
  cc::refactor_and_write(tiers, "p.bp", "v", mesh, values, config);
  ca::BpReader reader(tiers, "p.bp");
  std::size_t placed = 0;
  for (const auto& b : reader.inq_var("v").blocks) {
    if (!level0(b)) continue;
    EXPECT_EQ(tiers.find(b.object_key), std::optional<std::size_t>(2))
        << ca::to_string(b.kind);
    ++placed;
  }
  EXPECT_EQ(placed, 1u);
}

TEST(Refactorer, RejectsACascadeWithoutCollapseLogs) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(8, 40, 0.5, 1.0, 0.1, 3);
  cc::RefactorConfig config;
  config.levels = 3;
  cm::CascadeOptions copt;
  copt.levels = config.levels;
  auto cascade = cm::build_cascade(mesh, smooth_field(mesh), copt);
  const auto logs = cascade.logs;
  cascade.logs.pop_back();
  EXPECT_THROW(cc::refactor_and_write(tiers, "c.bp", "v", cascade, config),
               canopus::Error);
  // The rejected write published no container.
  EXPECT_THROW(ca::BpReader(tiers, "c.bp"), canopus::Error);
  cascade.logs = logs;
  cc::refactor_and_write(tiers, "c.bp", "v", cascade, config);
  cc::ProgressiveReader reader(tiers, "c.bp", "v");
  reader.refine_to(0);
  EXPECT_TRUE(reader.current_mesh() == mesh);
}

TEST(Refactorer, PrebuiltCascadeMatchesFromScratchRefactor) {
  // The campaign-style overload must write the exact same container as the
  // mesh+values entry point, minus the decimation phase.
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;

  auto tiers_a = big_two_tiers();
  const auto from_scratch =
      cc::refactor_and_write(tiers_a, "a.bp", "v", mesh, values, config);

  cm::CascadeOptions copt;
  copt.levels = config.levels;
  copt.step = config.step;
  copt.decimate = config.decimate;
  const auto cascade = cm::build_cascade(mesh, values, copt);
  auto tiers_b = big_two_tiers();
  const auto prebuilt =
      cc::refactor_and_write(tiers_b, "a.bp", "v", cascade, config);

  EXPECT_GT(from_scratch.phases.get("decimation"), 0.0);
  EXPECT_EQ(prebuilt.phases.get("decimation"), 0.0);
  ASSERT_EQ(prebuilt.products.size(), from_scratch.products.size());
  for (std::size_t i = 0; i < prebuilt.products.size(); ++i) {
    EXPECT_EQ(prebuilt.products[i].name, from_scratch.products[i].name);
    EXPECT_EQ(prebuilt.products[i].stored_bytes,
              from_scratch.products[i].stored_bytes);
    EXPECT_EQ(prebuilt.products[i].tier, from_scratch.products[i].tier);
  }
  EXPECT_EQ(prebuilt.level_vertices, from_scratch.level_vertices);
}

TEST(Refactorer, BypassesFullFastTier) {
  // Tiny fast tier: nothing fits there, everything lands on the slow tier.
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 2;
  const auto report = cc::refactor_and_write(tiers, "r.bp", "v", mesh,
                                             smooth_field(mesh), config);
  for (const auto& p : report.products) EXPECT_EQ(p.tier, 1u);
}

TEST(Refactorer, CanopusBeatsDirectMultilevelStorage) {
  // Motivation 2 / Fig. 5: storing base + deltas is smaller than storing all
  // decimated levels directly at the same codec accuracy.
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(20, 120, 0.5, 1.0, 0.1, 21);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  const auto canopus = cc::refactor_and_write(tiers, "c.bp", "v", mesh, values,
                                              config);
  const auto direct = cc::direct_multilevel_sizes(mesh, values, config);
  EXPECT_LT(canopus.total_stored_bytes(), direct.total_stored_bytes());
}

TEST(Refactorer, SingleLevelDegeneratesToBaseOnly) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(10, 10, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 1;
  const auto report = cc::refactor_and_write(tiers, "one.bp", "v", mesh,
                                             smooth_field(mesh), config);
  ASSERT_EQ(report.products.size(), 1u);
  EXPECT_EQ(report.products[0].name, "base");
  EXPECT_EQ(report.products[0].level, 0u);
}

// ----------------------------------------------------- progressive reader --

TEST(ProgressiveReader, BaseThenRefineToFull) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(12, 80, 0.5, 1.0, 0.1, 33);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  cc::refactor_and_write(tiers, "p.bp", "dpot", mesh, values, config);

  cc::ProgressiveReader reader(tiers, "p.bp", "dpot");
  EXPECT_EQ(reader.level_count(), 3u);
  EXPECT_EQ(reader.current_level(), 2u);
  EXPECT_GT(reader.decimation_ratio(), 3.0);
  const auto base_vertices = reader.values().size();
  EXPECT_LT(base_vertices, mesh.vertex_count());
  EXPECT_EQ(reader.values().size(), reader.current_mesh().vertex_count());

  const auto step = reader.refine();
  EXPECT_EQ(reader.current_level(), 1u);
  EXPECT_GT(reader.values().size(), base_vertices);
  EXPECT_GT(step.io_seconds, 0.0);
  EXPECT_GT(step.restore_seconds, 0.0);

  reader.refine();
  EXPECT_TRUE(reader.at_full_accuracy());
  ASSERT_EQ(reader.values().size(), values.size());
  // Every delta was taken against the level the reader restores, so the
  // codec's bound holds at full accuracy as it does for the base.
  EXPECT_LE(cu::max_abs_error(values, reader.values()),
            ct::level_bound(config.error_bound, values));
  EXPECT_THROW(reader.refine(), canopus::Error);
}

TEST(ProgressiveReader, RefineToSkipsLevels) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 90, 0.5, 1.0, 0.1, 41);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 4;
  config.error_bound = 1e-6;
  cc::refactor_and_write(tiers, "p4.bp", "v", mesh, values, config);

  cc::ProgressiveReader reader(tiers, "p4.bp", "v");
  EXPECT_EQ(reader.current_level(), 3u);
  const auto t = reader.refine_to(0);
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_GT(t.io_seconds, 0.0);
  EXPECT_LE(cu::max_abs_error(values, reader.values()),
            ct::level_bound(config.error_bound, values));
}

TEST(ProgressiveReader, LosslessChainIsExactToRounding) {
  // With a lossless codec the only reconstruction error left is the
  // floating-point rounding of fl((x - est) + est): at most a few ulps.
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.2, 43);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";
  cc::refactor_and_write(tiers, "exact.bp", "v", mesh, values, config);

  cc::ProgressiveReader reader(tiers, "exact.bp", "v");
  reader.refine_to(0);
  ASSERT_EQ(reader.values().size(), values.size());
  EXPECT_LE(cu::max_abs_error(values, reader.values()), 1e-14);
}

TEST(ProgressiveReader, EachRefinementImprovesAccuracy) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 47);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-8;
  cc::refactor_and_write(tiers, "imp.bp", "v", mesh, values, config);

  // Reference restoration chain evaluated against rasterized comparisons is
  // heavy; instead compare RMS error of the *restored full level* as we start
  // from deeper bases. Here: verify the restored L0 from all levels matches,
  // and that intermediate levels have monotonically growing vertex counts.
  cc::ProgressiveReader reader(tiers, "imp.bp", "v");
  std::size_t prev = reader.values().size();
  while (!reader.at_full_accuracy()) {
    reader.refine();
    EXPECT_GT(reader.values().size(), prev);
    prev = reader.values().size();
  }
  EXPECT_LE(cu::max_abs_error(values, reader.values()),
            ct::level_bound(config.error_bound, values));
}

TEST(ProgressiveReader, RefineUntilStopsEarlyOnSmoothData) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 53);
  // Nearly constant field: refinements contribute almost nothing, so a loose
  // threshold stops at the first refinement.
  cm::Field values(mesh.vertex_count(), 5.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] += 1e-6 * std::sin(static_cast<double>(i));
  }
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "fpc";
  cc::refactor_and_write(tiers, "ru.bp", "v", mesh, values, config);

  cc::ProgressiveReader reader(tiers, "ru.bp", "v");
  reader.refine_until(1e-3);
  EXPECT_GT(reader.current_level(), 0u);  // stopped before full accuracy

  cc::ProgressiveReader reader2(tiers, "ru.bp", "v");
  reader2.refine_until(0.0);  // impossible threshold -> full accuracy
  EXPECT_TRUE(reader2.at_full_accuracy());
}

// refine_until stops on the RMS refine() already computed: without a
// geometry cache it reads exactly the objects and bytes refine_to(0) reads,
// by the tiers' own read counters — no uncharged re-read of a mapping.
TEST(ProgressiveReader, RefineUntilReadsWhatRefineToReads) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 53);
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "fpc";
  config.delta_chunks = 4;
  cc::refactor_and_write(tiers, "rt.bp", "v", mesh, smooth_field(mesh), config);

  const auto tier_reads = [&tiers](const auto& refine) {
    canopus::obs::ObservabilityOptions options;
    options.enabled = true;
    canopus::obs::install(options);  // clean counters
    cc::ProgressiveReader reader(tiers, "rt.bp", "v");
    refine(reader);
    EXPECT_TRUE(reader.at_full_accuracy());
    const auto snap = canopus::obs::MetricsRegistry::global().snapshot();
    canopus::obs::set_enabled(false);
    std::vector<std::uint64_t> counts;
    for (std::size_t t = 0; t < tiers.tier_count(); ++t) {
      for (const char* what : {".reads", ".read_bytes"}) {
        const auto* e =
            snap.find("storage." + tiers.tier(t).spec().name + what);
        counts.push_back(e != nullptr ? e->count : 0);
      }
    }
    return counts;
  };
  const auto to = tier_reads([](cc::ProgressiveReader& r) { r.refine_to(0); });
  const auto until =
      tier_reads([](cc::ProgressiveReader& r) { r.refine_until(0.0); });
  EXPECT_EQ(until, to);
  EXPECT_GT(to[2], 0u);  // the deltas really came off the slow tier
}

TEST(ProgressiveReader, CumulativeTimingsAccumulate) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 3;
  cc::refactor_and_write(tiers, "t.bp", "v", mesh, smooth_field(mesh), config);

  cc::ProgressiveReader reader(tiers, "t.bp", "v");
  const double after_open = reader.cumulative().io_seconds;
  EXPECT_GT(after_open, 0.0);
  reader.refine();
  EXPECT_GT(reader.cumulative().io_seconds, after_open);
  EXPECT_GT(reader.cumulative().bytes_read, 0u);
}

TEST(ProgressiveReader, RestoredMeshesAreValid) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_disk_mesh(12, 64, 1.0, 0.1, 59);
  cc::RefactorConfig config;
  config.levels = 3;
  cc::refactor_and_write(tiers, "m.bp", "v", mesh, smooth_field(mesh), config);
  cc::ProgressiveReader reader(tiers, "m.bp", "v");
  while (true) {
    const auto report = cm::validate(reader.current_mesh());
    EXPECT_TRUE(report.ok) << "level " << reader.current_level();
    if (reader.at_full_accuracy()) break;
    reader.refine();
  }
}

// ----------------------------------------------------------- error budget --

// The writer takes every delta against the level the reader restores, so
// the per-product bound is the bound of every level of a full refine: no
// share of it is set aside for codec error compounding down the chain.
TEST(ErrorBudget, TotalBudgetHeldEndToEnd) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 61);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  cm::CascadeOptions copt;
  copt.levels = config.levels;
  const auto cascade = cm::build_cascade(mesh, values, copt);
  cc::refactor_and_write(tiers, "budget.bp", "v", cascade, config);
  cc::ProgressiveReader reader(tiers, "budget.bp", "v");
  for (auto l = static_cast<std::uint32_t>(config.levels); l-- > 0;) {
    reader.refine_to(l);
    const auto& level = cascade.levels[l].values;
    EXPECT_LE(cu::max_abs_error(level, reader.values()),
              ct::level_bound(config.error_bound, level))
        << "level " << l;
  }
}

// The writer's chain is the reader's: after coding each level, the closed
// loop holds bitwise the level a full refine of the container restores,
// chunked and not, in every Estimate mode.
TEST(ClosedLoop, WriterChainIsTheReadersBitwise) {
  const auto ds = canopus::sim::all_datasets(0.1)[0];
  cm::CascadeOptions copt;
  copt.levels = 4;
  const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
  for (const auto mode : {cc::EstimateMode::kUniformThirds,
                          cc::EstimateMode::kBarycentric,
                          cc::EstimateMode::kGradient}) {
    for (const std::uint32_t chunks : {1u, 8u}) {
      SCOPED_TRACE(cc::to_string(mode) + " chunks " + std::to_string(chunks));
      auto tiers = big_two_tiers();
      cc::RefactorConfig config;
      config.levels = copt.levels;
      config.codec = "zfp";
      config.error_bound = 1e-4;
      config.estimate = mode;
      config.delta_chunks = chunks;
      cc::refactor_and_write(tiers, "loop.bp", "v", cascade, config);
      cc::ProgressiveReader reader(tiers, "loop.bp", "v");
      cc::ClosedLoop loop(config.codec, config.error_bound, mode);
      loop.code_base(cascade.levels.back().values);
      EXPECT_TRUE(ct::same_bits(loop.level(), reader.values()));
      for (std::size_t l = copt.levels - 1; l-- > 0;) {
        const auto& fine = cascade.levels[l];
        const auto order = cc::cached_spatial_order(fine.mesh);
        loop.code_delta(cascade.levels[l + 1].mesh, fine.mesh, fine.values,
                        cc::build_mapping(fine.mesh, cascade.levels[l + 1].mesh),
                        chunks, chunks > 1 ? order.get() : nullptr);
        reader.refine_to(static_cast<std::uint32_t>(l));
        EXPECT_TRUE(ct::same_bits(loop.level(), reader.values())) << "level " << l;
      }
    }
  }
}

// With a lossless codec the loop's decode is exact, and where the restore
// is exact too the closed loop is the open loop: every stored delta is the
// reference's taken against the input's own coarser level. The field is
// offset by 2, so every value stays positive and within a factor of two of
// its Estimate; value - estimate is then exact (Sterbenz), and so is
// delta + estimate, which the full refine's bitwise levels confirm.
TEST(ClosedLoop, LosslessDeltasAreTheOpenLoopReference) {
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  cm::Field values = smooth_field(mesh);
  for (double& v : values) v += 2.0;
  cm::CascadeOptions copt;
  copt.levels = 4;
  const auto cascade = cm::build_cascade(mesh, values, copt);
  for (const auto mode : {cc::EstimateMode::kUniformThirds,
                          cc::EstimateMode::kBarycentric,
                          cc::EstimateMode::kGradient}) {
    SCOPED_TRACE(cc::to_string(mode));
    auto tiers = big_two_tiers();
    cc::RefactorConfig config;
    config.levels = copt.levels;
    config.codec = "fpc";
    config.estimate = mode;
    config.delta_chunks = 4;
    cc::refactor_and_write(tiers, "fpc.bp", "v", cascade, config);
    const ca::BpReader raw(tiers, "fpc.bp");
    for (std::uint32_t l = 0; l + 1 < config.levels; ++l) {
      const auto& fine = cascade.levels[l];
      const auto& coarse = cascade.levels[l + 1];
      EXPECT_TRUE(ct::same_bits(
          ct::stored_delta(raw, "v", l, fine.mesh),
          ct::reference_delta(coarse.mesh, coarse.values, fine.values,
                              ct::reference_build_mapping(fine.mesh, coarse.mesh),
                              mode)))
          << "level " << l;
    }
    cc::ProgressiveReader reader(tiers, "fpc.bp", "v");
    for (auto l = static_cast<std::uint32_t>(config.levels); l-- > 0;) {
      reader.refine_to(l);
      EXPECT_TRUE(ct::same_bits(reader.values(), cascade.levels[l].values))
          << "level " << l;
    }
  }
}

TEST(ProgressiveReader, RefineUntilValidatesThreshold) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";
  cc::refactor_and_write(tiers, "rv.bp", "v", mesh, smooth_field(mesh), config);

  cc::ProgressiveReader reader(tiers, "rv.bp", "v");
  const auto before = reader.current_level();
  // A NaN/inf threshold is a caller bug, rejected before any I/O...
  EXPECT_THROW(reader.refine_until(std::nan("")), canopus::Error);
  EXPECT_THROW(
      reader.refine_until(std::numeric_limits<double>::infinity()),
      canopus::Error);
  EXPECT_EQ(reader.current_level(), before);
  // ...while any threshold <= 0 is legal and means "never stop early":
  // refine all the way to full accuracy.
  reader.refine_until(-1.0);
  EXPECT_TRUE(reader.at_full_accuracy());
}

// ---------------------------------------------------------- crafted input --

// Each decoder bounds a declared count by the bytes left in its block, so
// corrupt input is a canopus::Error instead of a huge allocation or a read
// past a mesh.

// A container stores no mapping: the loader derives each level's by point
// location in the replayed coarser mesh. Geometry that leaves a fine vertex
// in no coarse triangle (a coordinate that is not finite) is refused, naming
// the mapping's level, by the loader and by a reader opened without a
// cache, instead of handing Estimate a triangle id past the coarse mesh.
// Vertex 4 is unreferenced, so only the fine level holds it; vertex 0 is a
// corner, so the coarse level's extent is NaN too.
TEST(Decoders, GeometryWithoutAMappingThrowsErrorNamingTheLevel) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, MeshBlockSpec>> cases;
  for (const auto& [vertex, x] :
       {std::pair{4, kNaN}, std::pair{4, kInf}, std::pair{0, kNaN}}) {
    MeshBlockSpec spec;
    spec.x[vertex] = x;
    cases.emplace_back("x of vertex " + std::to_string(vertex) + " = " +
                           std::to_string(x),
                       spec);
  }
  auto tiers = big_two_tiers();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const auto& [what, spec] = cases[k];
    SCOPED_TRACE(what);
    const std::string path = "nomap" + std::to_string(k) + ".bp";
    {
      ca::BpWriter writer(tiers, path);
      writer.set_attribute("levels", "2");
      writer.write_opaque("v", ca::BlockKind::kMesh, 0, spec.block());
      cu::ByteWriter no_collapses;
      no_collapses.put_varint(0);
      writer.write_opaque("v", ca::BlockKind::kCollapseLog, 1, no_collapses.view());
      writer.write_doubles("v", ca::BlockKind::kBase, 1,
                           std::vector<double>(4, 1.0), "raw", 0.0);
      writer.write_doubles("v", ca::BlockKind::kDelta, 0,
                           std::vector<double>(5, 0.0), "raw", 0.0);
      writer.close();
    }
    const auto names_level = [](const std::function<void()>& open) {
      try {
        open();
      } catch (const canopus::Error& e) {
        return std::string(e.what()).find("mapping of 'v' at level 0") !=
               std::string::npos;
      }
      return false;
    };
    EXPECT_TRUE(names_level([&] { cc::GeometryCache::load(tiers, path, "v"); }));
    EXPECT_TRUE(names_level([&] { cc::ProgressiveReader(tiers, path, "v"); }));
  }
}

TEST(Decoders, MeshCountBeyondBlockThrowsError) {
  ASSERT_TRUE(cc::decode_mesh_block(MeshBlockSpec{}.block()) == mesh_block_mesh());
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 61}) {
    SCOPED_TRACE(count);
    MeshBlockSpec vertices;
    vertices.n = count;
    EXPECT_THROW(cc::decode_mesh_block(vertices.block()), canopus::Error);
    MeshBlockSpec triangles;
    triangles.triangles = count;
    EXPECT_THROW(cc::decode_mesh_block(triangles.block()), canopus::Error);
  }
}

TEST(Decoders, MalformedLevelsAttributeThrowsError) {
  for (const std::string value : {"three", "", "0", "-1", "3x", "4294967296"}) {
    SCOPED_TRACE("levels='" + value + "'");
    auto tiers = big_two_tiers();
    {
      ca::BpWriter writer(tiers, "bad.bp");
      writer.set_attribute("levels", value);
      writer.write_doubles("v", ca::BlockKind::kBase, 0,
                           std::vector<double>{1.0, 2.0, 3.0}, "raw", 0.0);
      writer.close();
    }
    EXPECT_THROW(cc::GeometryCache::load(tiers, "bad.bp", "v"), canopus::Error);
    EXPECT_THROW(cc::ProgressiveReader(tiers, "bad.bp", "v"), canopus::Error);
  }
}

// A collapse-log block of the level-1 pass of a container whose L0 mesh has
// `n` vertices is rejected, naming the block, by the loader and by a reader
// opened without a cache, when its count runs past the block, it ends early,
// or a pair cannot come from that mesh.
TEST(Decoders, MalformedCollapseLogThrowsErrorNamingTheBlock) {
  const auto mesh = cm::make_disk_mesh(8, 40, 1.0, 0.1, 11);
  auto tiers = big_two_tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "raw";
  cc::refactor_and_write(tiers, "ok.bp", "v", mesh, smooth_field(mesh), config);
  const ca::BpReader ok(tiers, "ok.bp");
  const std::uint64_t n = mesh.vertex_count();
  ASSERT_GT(n, 300u);
  const auto block = [](std::uint64_t count,
                        std::initializer_list<std::uint64_t> slots) {
    cu::ByteWriter w;
    w.put_varint(count);
    for (const auto v : slots) w.put_varint(v);
    return w.take();
  };
  auto halved = ok.read_opaque("v", ca::BlockKind::kCollapseLog, 1);
  halved.resize(halved.size() / 2);
  const std::vector<std::pair<std::string, cu::Bytes>> cases = {
      {"count past the block", block(std::uint64_t{1} << 40, {0, 1})},
      {"count past 2^61", block(std::uint64_t{1} << 61, {0, 1})},
      {"half a block", halved},
      // 200 and 300 take two bytes each, so the count passes the bound.
      {"truncated block", block(2, {200, 300})},
      {"slot past the input", block(1, {0, n})},
      {"slot past 32 bits", block(1, {std::uint64_t{1} << 33, 0})},
      {"slot collapsed into itself", block(1, {3, 3})},
      {"slot collapsed twice", block(2, {0, 1, 2, 1})},
      {"survivor used after it died", block(2, {0, 1, 1, 2})},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const auto& [what, bytes] = cases[k];
    SCOPED_TRACE(what);
    const std::string path = "bad" + std::to_string(k) + ".bp";
    {
      ca::BpWriter writer(tiers, path);
      writer.set_attribute("levels", "3");
      writer.write_opaque("v", ca::BlockKind::kMesh, 0,
                          ok.read_opaque("v", ca::BlockKind::kMesh, 0));
      writer.write_opaque("v", ca::BlockKind::kCollapseLog, 1, bytes);
      writer.write_opaque("v", ca::BlockKind::kCollapseLog, 2,
                          ok.read_opaque("v", ca::BlockKind::kCollapseLog, 2));
      for (std::uint32_t l = 0; l < 2; ++l) {
        writer.write_doubles("v", ca::BlockKind::kDelta, l,
                             ok.read_doubles("v", ca::BlockKind::kDelta, l),
                             "raw", 0.0);
      }
      writer.write_doubles("v", ca::BlockKind::kBase, 2,
                           ok.read_doubles("v", ca::BlockKind::kBase, 2), "raw",
                           0.0);
      writer.close();
    }
    const auto names_block = [](const std::function<void()>& open) {
      try {
        open();
      } catch (const canopus::Error& e) {
        return std::string(e.what()).find(
                   "collapse log block of 'v' at level 1") != std::string::npos;
      }
      return false;
    };
    EXPECT_TRUE(names_block([&] { cc::GeometryCache::load(tiers, path, "v"); }));
    EXPECT_TRUE(names_block([&] { cc::ProgressiveReader(tiers, path, "v"); }));
  }
}

// A kMesh block that is cut short, has a bit flipped, or holds sections
// that contradict each other is rejected, naming the block, by the loader
// and by a reader opened without a cache.
TEST(Decoders, MalformedMeshBlockThrowsErrorNamingTheBlock) {
  const auto mesh = cm::make_disk_mesh(8, 40, 1.0, 0.1, 11);
  auto tiers = big_two_tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "raw";
  config.delta_chunks = 1;
  cc::refactor_and_write(tiers, "ok.bp", "v", mesh, smooth_field(mesh), config);
  const ca::BpReader ok(tiers, "ok.bp");
  const auto good = ok.read_opaque("v", ca::BlockKind::kMesh, 0);
  ASSERT_TRUE(cc::decode_mesh_block(good) == mesh);
  const auto rejected = [&](cu::BytesView block) {
    {
      ca::BpWriter writer(tiers, "bad.bp");
      writer.set_attribute("levels", "2");
      writer.write_opaque("v", ca::BlockKind::kMesh, 0, block);
      writer.write_opaque("v", ca::BlockKind::kCollapseLog, 1,
                          ok.read_opaque("v", ca::BlockKind::kCollapseLog, 1));
      writer.write_doubles("v", ca::BlockKind::kBase, 1,
                           ok.read_doubles("v", ca::BlockKind::kBase, 1), "raw",
                           0.0);
      writer.write_doubles("v", ca::BlockKind::kDelta, 0,
                           ok.read_doubles("v", ca::BlockKind::kDelta, 0), "raw",
                           0.0);
      writer.close();
    }
    const auto names_block = [](const std::function<void()>& open) {
      try {
        open();
      } catch (const canopus::Error& e) {
        return std::string(e.what()).find("mesh block of 'v' at level 0") !=
               std::string::npos;
      }
      return false;
    };
    return names_block([&] { cc::GeometryCache::load(tiers, "bad.bp", "v"); }) &&
           names_block([&] { cc::ProgressiveReader(tiers, "bad.bp", "v"); });
  };

  // Truncation at every section boundary: as cut (the seal is gone) and
  // resealed (the sections themselves run short).
  std::vector<std::size_t> cuts{0};
  {
    cu::ByteReader r(good);
    const auto n = r.get_varint();
    cuts.push_back(r.position());
    r.get_varint();
    cuts.push_back(r.position());
    const auto width = static_cast<unsigned>(std::bit_width(n - 1));
    r.get_bytes((n * width + 63) / 64 * 8);
    cuts.push_back(r.position());
    for (int section = 0; section < 4; ++section) {
      const auto len = r.get_varint();
      cuts.push_back(r.position());
      r.get_bytes(len);
      cuts.push_back(r.position());
    }
    ASSERT_EQ(r.remaining(), sizeof(std::uint32_t));
  }
  for (const auto cut : cuts) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const auto prefix = cu::BytesView(good).first(cut);
    EXPECT_TRUE(rejected(prefix));
    if (cut + sizeof(std::uint32_t) < good.size()) {
      EXPECT_TRUE(rejected(sealed(prefix)));
    }
  }

  cu::Rng rng(ct::test_seed() ^ 0x3e5bu);
  for (int flip = 0; flip < 200; ++flip) {
    auto bytes = good;
    const auto bit = rng.uniform_index(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    SCOPED_TRACE("bit " + std::to_string(bit) + " flipped");
    EXPECT_TRUE(rejected(bytes));
  }

  // Sections that contradict each other, sealed as a writer would.
  EXPECT_FALSE(rejected(MeshBlockSpec{}.block()));
  // Each names what is wrong with it.
  struct Case {
    std::string what;
    std::string message;
    MeshBlockSpec spec;
  };
  std::vector<Case> cases;
  const auto with = [&](std::string what, std::string message, auto edit) {
    MeshBlockSpec spec;
    edit(spec);
    cases.push_back({std::move(what), std::move(message), std::move(spec)});
  };
  with("permutation id repeats", "permutation id 1 repeats",
       [](auto& s) { s.perm = {0, 1, 1, 3, 4}; });
  with("permutation id past n", "permutation id 7 past 5",
       [](auto& s) { s.perm = {0, 1, 2, 3, 7}; });
  with("previous-triangle corner on triangle 0", "on triangle 0",
       [](auto& s) { s.symbols = {1, 0, 0, 1, 3, 0}; });
  with("recent slot not filled yet", "recent slot 2 of 2 filled",
       [](auto& s) { s.symbols = {0, 0, 6, 1, 3, 0}; });
  with("distance past the newest rank", "distance 3 past the newest rank",
       [](auto& s) {
         s.symbols = {0, 0, 0, 12, 3, 0};
         s.distances = {3};
       });
  with("unknown corner symbol", "corner symbol 13",
       [](auto& s) { s.symbols = {0, 0, 13, 1, 3, 0}; });
  with("more new ranks than vertices", "more new vertices than the 5",
       [](auto& s) { s.symbols = {0, 0, 0, 0, 0, 0}; });
  with("distance stream outlasts its corners", "distance stream longer",
       [](auto& s) { s.distances = {0}; });
  with("corner stream shorter than 3T", "5 corner symbols for 2 triangles",
       [](auto& s) { s.symbols = {0, 0, 0, 1, 3}; });
  with("corner stream longer than 3T", "7 corner symbols for 2 triangles",
       [](auto& s) { s.symbols = {0, 0, 0, 1, 3, 0, 0}; });
  with("x stream shorter than n", "coordinate stream of 4 values for 5",
       [](auto& s) { s.x.pop_back(); });
  with("y stream longer than n", "coordinate stream of 6 values for 5",
       [](auto& s) { s.y.push_back(3.0); });
  with("n past its permutation section", "1000 vertices in",
       [](auto& s) { s.n = 1000; });
  with("T past its corner section", "1099511627776 triangles in",
       [](auto& s) { s.triangles = std::uint64_t{1} << 40; });
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    try {
      cc::decode_mesh_block(c.spec.block());
      ADD_FAILURE() << "decoded";
    } catch (const canopus::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(rejected(c.spec.block()));
  }
  auto trailing = MeshBlockSpec{}.body();
  trailing.push_back(std::byte{0});
  EXPECT_TRUE(rejected(sealed(trailing)));
}

// --------------------------------------------------------------- mesh block --

namespace {

/// `mesh` with its triangles in a seeded random order (Fisher-Yates).
cm::TriMesh shuffled_triangles(const cm::TriMesh& mesh, std::uint64_t seed) {
  auto tris = mesh.triangles();
  cu::Rng rng(seed);
  for (std::size_t i = tris.size(); i > 1; --i) {
    std::swap(tris[i - 1], tris[rng.uniform_index(i)]);
  }
  return cm::TriMesh(mesh.vertices(), std::move(tris));
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Bytes of the retired raw layout: varint n, 16 bytes per vertex, varint
/// T, a varint per corner.
std::size_t retired_size(const cm::TriMesh& mesh) {
  std::size_t n = varint_size(mesh.vertex_count()) + 16 * mesh.vertex_count() +
                  varint_size(mesh.triangle_count());
  for (const auto& t : mesh.triangles()) {
    for (const auto v : t.v) n += varint_size(v);
  }
  return n;
}

/// A strip of n vertices with triangle (i, i+1, i+2) for each i, its
/// vertex ids shuffled.
cm::TriMesh strip_mesh(std::size_t n, std::uint64_t seed) {
  std::vector<cm::Vec2> vertices;
  std::vector<cm::Triangle> tris;
  for (std::size_t i = 0; i < n; ++i) {
    vertices.push_back({static_cast<double>(i / 2), static_cast<double>(i % 2)});
    if (i >= 2) {
      tris.push_back({{static_cast<cm::VertexId>(i - 2),
                       static_cast<cm::VertexId>(i - 1),
                       static_cast<cm::VertexId>(i)}});
    }
  }
  return cm::shuffle_vertices(cm::TriMesh(std::move(vertices), std::move(tris)),
                              seed);
}

}  // namespace

// The block holds every dataset's mesh bitwise, in generator triangle
// order and shuffled; shuffled triangles defeat the corner coder, yet the
// block stays no larger than the retired raw layout.
TEST(MeshBlock, RoundTripIsBitwiseOnEveryDataset) {
  for (const double scale : {0.05, 0.25, 1.0}) {
    for (const auto& ds : canopus::sim::all_datasets(scale)) {
      SCOPED_TRACE(ds.name + " at scale " + std::to_string(scale));
      const auto block = cc::encode_mesh_block(ds.mesh);
      EXPECT_TRUE(cc::decode_mesh_block(block) == ds.mesh);
      EXPECT_LT(block.size(), retired_size(ds.mesh));
      const auto shuffled = shuffled_triangles(ds.mesh, ct::test_seed() + 7);
      const auto worst = cc::encode_mesh_block(shuffled);
      EXPECT_TRUE(cc::decode_mesh_block(worst) == shuffled);
      EXPECT_LE(worst.size(), retired_size(shuffled));
    }
  }
}

TEST(MeshBlock, RoundTripEdgeCases) {
  std::vector<std::pair<std::string, cm::TriMesh>> meshes;
  meshes.emplace_back("empty", cm::TriMesh());
  meshes.emplace_back("one vertex", cm::TriMesh({{0.5, 0.25}}, {}));
  meshes.emplace_back("unreferenced vertices", mesh_block_mesh());
  meshes.emplace_back("lone triangle",
                      cm::TriMesh({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {{{2, 0, 1}}}));
  for (unsigned k = 1; k <= 13; ++k) {
    for (const std::size_t n : {std::size_t{1} << k, (std::size_t{1} << k) + 1}) {
      meshes.emplace_back(std::to_string(n) + "-vertex strip", strip_mesh(n, k));
    }
  }
  for (const auto& [what, mesh] : meshes) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(cc::decode_mesh_block(cc::encode_mesh_block(mesh)) == mesh);
  }
  // The block of the unreferenced-vertices mesh is the documented layout.
  EXPECT_EQ(cc::encode_mesh_block(mesh_block_mesh()), MeshBlockSpec{}.block());
}

// ---------------------------------------------------------- collapse replay --

// Across datasets, edge priorities and depths, the loaded meshes are the
// writer's cascade, held at exact size, and a reader opened without a cache
// restores every level bitwise as a reader given the cache does, in every
// Estimate mode.
TEST(CollapseReplay, LoadedLevelsAreTheCascadeOnEveryReadPath) {
  for (const auto& ds : canopus::sim::all_datasets(0.05)) {
    for (const auto priority : {cm::EdgePriority::kShortestFirst,
                                cm::EdgePriority::kRandom,
                                cm::EdgePriority::kGradientWeighted}) {
      for (std::size_t levels = 2; levels <= 5; ++levels) {
        SCOPED_TRACE(ds.name + " priority " +
                     std::to_string(static_cast<int>(priority)) + " levels " +
                     std::to_string(levels));
        cm::CascadeOptions copt;
        copt.levels = levels;
        copt.decimate.priority = priority;
        const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
        for (const auto mode : {cc::EstimateMode::kUniformThirds,
                                cc::EstimateMode::kBarycentric,
                                cc::EstimateMode::kGradient}) {
          SCOPED_TRACE(cc::to_string(mode));
          auto tiers = big_two_tiers();
          cc::RefactorConfig config;
          config.levels = levels;
          config.decimate = copt.decimate;
          config.estimate = mode;
          config.codec = "zfp";
          config.error_bound = 1e-4;
          config.delta_chunks = 4;
          cc::refactor_and_write(tiers, "s.bp", "v", ds.mesh, ds.values, config);
          const auto geometry = cc::GeometryCache::load(tiers, "s.bp", "v");
          ASSERT_EQ(geometry.level_count(), levels);
          for (std::size_t l = 0; l < levels; ++l) {
            const auto& m = geometry.mesh(l);
            EXPECT_TRUE(m == cascade.levels[l].mesh) << "level " << l;
            EXPECT_EQ(m.vertices().capacity(), m.vertex_count()) << "level " << l;
            EXPECT_EQ(m.triangles().capacity(), m.triangle_count())
                << "level " << l;
          }
          cc::ProgressiveReader cached(tiers, "s.bp", "v", &geometry);
          cc::ProgressiveReader plain(tiers, "s.bp", "v");
          for (auto l = static_cast<std::uint32_t>(levels); l-- > 0;) {
            cached.refine_to(l);
            plain.refine_to(l);
            ASSERT_EQ(plain.current_level(), l);
            EXPECT_TRUE(ct::same_bits(cached.values(), plain.values()))
                << "level " << l;
          }
        }
      }
    }
  }
}
