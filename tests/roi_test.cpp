// Tests for focused (region-of-interest) retrieval: spatial ordering, chunk
// indexing, chunked round trips, and ROI refinement accuracy/IO semantics.

#include <gtest/gtest.h>

#include <cmath>

#include "core/canopus.hpp"
#include "mesh/generators.hpp"
#include "reference_mapping.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/stats.hpp"

namespace ca = canopus::adios;
namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ct = canopus::test;
namespace cu = canopus::util;

namespace {

cm::Field bump_field(const cm::TriMesh& mesh, cm::Vec2 center, double sigma) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double d2 = (p - center).norm2();
    f[v] = std::exp(-d2 / (2 * sigma * sigma)) +
           0.05 * std::sin(9.0 * p.x) * std::cos(7.0 * p.y);
  }
  return f;
}

cs::StorageHierarchy tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(16 << 20), cs::lustre_spec(1 << 30)});
}

}  // namespace

TEST(SpatialOrder, IsAPermutation) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.2, 3), 7);
  const auto order = cm::spatial_order(mesh);
  ASSERT_EQ(order.size(), mesh.vertex_count());
  std::vector<bool> seen(order.size(), false);
  for (auto v : order) {
    ASSERT_LT(v, seen.size());
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(SpatialOrder, ConsecutivePositionsAreSpatiallyClose) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.1, 3), 7);
  const auto order = cm::spatial_order(mesh);
  // Mean hop distance along the curve should be far below the domain size.
  double acc = 0.0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    acc += cm::distance(mesh.vertex(order[i - 1]), mesh.vertex(order[i]));
  }
  EXPECT_LT(acc / static_cast<double>(order.size() - 1), 0.15);
}

TEST(SpatialOrder, DeterministicAcrossCalls) {
  const auto mesh = cm::make_disk_mesh(8, 40, 1.0, 0.1, 5);
  EXPECT_EQ(cm::spatial_order(mesh), cm::spatial_order(mesh));
}

TEST(ChunkIndex, SerializeRoundTripAndIntersection) {
  cc::ChunkIndex idx;
  idx.chunks.push_back({0, 10, {{0, 0}, {1, 1}}});
  idx.chunks.push_back({10, 10, {{2, 2}, {3, 3}}});
  cu::ByteWriter w;
  idx.serialize(w);
  cu::ByteReader r(w.view());
  const auto copy = cc::ChunkIndex::deserialize(r);
  ASSERT_EQ(copy.chunks.size(), 2u);
  EXPECT_EQ(copy.chunks[1].start, 10u);
  EXPECT_EQ(copy.chunks[1].bbox.hi.x, 3.0);

  EXPECT_EQ(idx.intersecting({{0.5, 0.5}, {0.6, 0.6}}),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(idx.intersecting({{2.5, 2.5}, {2.6, 2.6}}),
            (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(idx.intersecting({{0.5, 0.5}, {2.5, 2.5}}),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(idx.intersecting({{10, 10}, {11, 11}}).empty());
}

TEST(ChunkedDeltas, FullRefineMatchesUnchunked) {
  // Chunked storage is an encoding detail: a full refine must restore the
  // same values as the monolithic layout.
  const auto mesh = cm::shuffle_vertices(
      cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9), 4);
  const auto values = bump_field(mesh, {0.0, 0.8}, 0.08);
  auto t1 = tiers();
  auto t2 = tiers();
  cc::RefactorConfig mono, chunked;
  mono.levels = chunked.levels = 3;
  mono.codec = chunked.codec = "fpc";  // lossless: outputs comparable exactly
  chunked.delta_chunks = 16;
  cc::refactor_and_write(t1, "m.bp", "v", mesh, values, mono);
  cc::refactor_and_write(t2, "c.bp", "v", mesh, values, chunked);
  cc::ProgressiveReader rm(t1, "m.bp", "v");
  cc::ProgressiveReader rc(t2, "c.bp", "v");
  rm.refine_to(0);
  rc.refine_to(0);
  ASSERT_EQ(rm.values().size(), rc.values().size());
  for (std::size_t i = 0; i < rm.values().size(); ++i) {
    EXPECT_EQ(rm.values()[i], rc.values()[i]) << i;
  }
  EXPECT_FALSE(rc.partially_refined());
}

TEST(RoiRefine, AccurateInsideEstimateOutside) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(50, 50, 2.0, 2.0, 0.1, 13), 8);
  const cm::Vec2 feature{1.5, 1.5};
  const auto values = bump_field(mesh, feature, 0.12);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  config.delta_chunks = 32;
  cc::refactor_and_write(h, "roi.bp", "v", mesh, values, config);

  const cm::Aabb roi{{1.2, 1.2}, {1.8, 1.8}};
  cc::ProgressiveReader reader(h, "roi.bp", "v");
  reader.refine_region(roi);
  EXPECT_TRUE(reader.partially_refined());
  EXPECT_TRUE(reader.at_full_accuracy());
  ASSERT_EQ(reader.values().size(), values.size());

  double inside_err = 0.0, outside_err = 0.0;
  std::size_t inside_n = 0;
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double err = std::abs(reader.values()[v] - values[v]);
    const bool inside = p.x >= roi.lo.x && p.x <= roi.hi.x &&
                        p.y >= roi.lo.y && p.y <= roi.hi.y;
    if (inside) {
      inside_err = std::max(inside_err, err);
      ++inside_n;
    } else {
      outside_err = std::max(outside_err, err);
    }
  }
  ASSERT_GT(inside_n, 20u);
  // Inside the ROI the restoration is delta-exact (codec bound only)...
  EXPECT_LE(inside_err, 2e-7);
  // ...outside it is estimate-only, so visibly less accurate near structure.
  EXPECT_GT(outside_err, 1e-3);
}

TEST(RoiRefine, ReadsFewerBytesThanFullRefine) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(60, 60, 2.0, 2.0, 0.1, 17), 8);
  const auto values = bump_field(mesh, {0.4, 0.4}, 0.15);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 64;
  cc::refactor_and_write(h, "roi.bp", "v", mesh, values, config);

  // Shared geometry cache: only data (delta) bytes differ between the modes.
  const auto geometry = cc::GeometryCache::load(h, "roi.bp", "v");
  cc::ProgressiveReader full(h, "roi.bp", "v", &geometry);
  const auto full_step = full.refine();
  cc::ProgressiveReader focused(h, "roi.bp", "v", &geometry);
  const auto roi_step = focused.refine_region({{0.2, 0.2}, {0.6, 0.6}});
  // Compare the refinement step itself (both readers paid the same base
  // read): the ROI fetches a handful of chunks instead of the whole delta.
  EXPECT_LT(roi_step.bytes_read, full_step.bytes_read / 2);
  EXPECT_LT(focused.cumulative().io_seconds, full.cumulative().io_seconds);
}

TEST(RoiRefine, UnchunkedVariableFallsBackToFullRefine) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.1, 19);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.2);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "fpc";
  cc::refactor_and_write(h, "mono.bp", "v", mesh, values, config);
  cc::ProgressiveReader reader(h, "mono.bp", "v");
  reader.refine_region({{0.4, 0.4}, {0.6, 0.6}});
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_FALSE(reader.partially_refined());  // full fallback applied all data
  EXPECT_LE(cu::max_abs_error(values, reader.values()), 1e-13);
}

// A chunk index is container input: one whose ranges do not tile its
// level (here a range starting past the level, at a start that would wrap
// an unchecked start + count) is refused, and the step falls back to a
// full refine as it does for an unchunked variable.
TEST(RoiRefine, ChunkIndexThatDoesNotTileFallsBackToFullRefine) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.1, 19);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.2);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 4;
  cc::refactor_and_write(h, "tile.bp", "v", mesh, values, config);
  const ca::BpReader raw(h, "tile.bp");
  const auto info = raw.inq_var("v");
  const auto* record = info.block(ca::BlockKind::kChunkIndex, 0);
  ASSERT_NE(record, nullptr);
  const auto index_bytes = raw.read_opaque("v", ca::BlockKind::kChunkIndex, 0);
  cu::ByteReader ir(index_bytes);
  const auto index = cc::ChunkIndex::deserialize(ir);
  ASSERT_EQ(index.chunks.size(), 4u);

  cc::ProgressiveReader full(h, "tile.bp", "v");
  full.refine();
  for (const std::uint64_t start : {std::uint64_t{1}, ~std::uint64_t{0}}) {
    SCOPED_TRACE("start " + std::to_string(start));
    auto crafted = index;
    crafted.chunks[1].start = start;
    cu::ByteWriter w;
    crafted.serialize(w);
    const auto tier = h.find(record->object_key);
    ASSERT_TRUE(tier.has_value());
    h.erase(record->object_key);
    h.write_to(*tier, record->object_key, w.view());
    cc::ProgressiveReader reader(h, "tile.bp", "v");
    reader.refine_region({{0.4, 0.4}, {0.6, 0.6}});
    EXPECT_TRUE(reader.at_full_accuracy());
    EXPECT_FALSE(reader.partially_refined());
    EXPECT_TRUE(ct::same_bits(reader.values(), full.values()));
  }
}

TEST(RoiRefine, WorksWithGeometryCache) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_annulus_mesh(14, 84, 0.5, 1.0, 0.1, 23), 6);
  const auto values = bump_field(mesh, {0.8, 0.0}, 0.1);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  config.delta_chunks = 24;
  cc::refactor_and_write(h, "gc.bp", "v", mesh, values, config);
  const auto geometry = cc::GeometryCache::load(h, "gc.bp", "v");
  cc::ProgressiveReader reader(h, "gc.bp", "v", &geometry);
  reader.refine_region({{0.6, -0.2}, {1.0, 0.2}});
  reader.refine_region({{0.6, -0.2}, {1.0, 0.2}});
  EXPECT_TRUE(reader.at_full_accuracy());
  // The feature region restored accurately through both regional steps.
  double feature_err = 0.0;
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    if (p.x >= 0.65 && p.x <= 0.95 && std::abs(p.y) <= 0.15) {
      feature_err = std::max(feature_err,
                             std::abs(reader.values()[v] - values[v]));
    }
  }
  EXPECT_LE(feature_err, 5e-7);
}

TEST(RoiRefine, MatchesReferenceMappingInEveryMode) {
  // A regional step restores the reference mapping's bits (the locator's
  // three double weights per fine vertex) with the unfetched chunks at zero,
  // and the backfill then lands on the reference's full level, on the
  // GeometryCache path and the on-demand path alike, at 1 and 4 threads.
  // The step fetches the chunks meeting the ROI and those the level-0
  // Estimate reads for the ROI's vertices (reference_region_chunks).
  const auto mesh = cm::shuffle_vertices(
      cm::make_annulus_mesh(14, 84, 0.5, 1.0, 0.1, 23), 6);
  const cm::Aabb roi{{0.6, -0.2}, {1.0, 0.2}};
  for (auto mode : {cc::EstimateMode::kUniformThirds,
                    cc::EstimateMode::kBarycentric,
                    cc::EstimateMode::kGradient}) {
    SCOPED_TRACE(cc::to_string(mode));
    auto h = tiers();
    cc::RefactorConfig config;
    config.levels = 3;
    config.codec = "zfp";
    config.error_bound = 1e-7;
    config.delta_chunks = 24;
    config.estimate = mode;
    cc::refactor_and_write(h, "eq.bp", "v", mesh,
                           bump_field(mesh, {0.8, 0.0}, 0.1), config);
    const auto expected = ct::reference_levels(h, "eq.bp", "v", "v", mode);

    const ca::BpReader raw(h, "eq.bp");
    const auto meshes = ct::stored_meshes(raw, "v");
    const auto index_bytes = raw.read_opaque("v", ca::BlockKind::kChunkIndex, 1);
    cu::ByteReader ir(index_bytes);
    const auto wanted = ct::reference_region_chunks(
        meshes, 1, cc::ChunkIndex::deserialize(ir), roi, mode);
    ASSERT_LT(wanted.size(), config.delta_chunks);
    const auto regional = ct::reference_restore(
        meshes[2], expected[2], ct::stored_delta(raw, "v", 1, meshes[1], &wanted),
        ct::reference_build_mapping(meshes[1], meshes[2]), mode);

    const auto geometry = cc::GeometryCache::load(h, "eq.bp", "v");
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      cc::ReaderOptions options;
      options.parallel.threads = threads;
      cc::ProgressiveReader cached(h, "eq.bp", "v", &geometry, options);
      cc::ProgressiveReader on_demand(h, "eq.bp", "v", nullptr, options);
      for (auto* reader : {&cached, &on_demand}) {
        SCOPED_TRACE(reader == &cached ? "geometry cache" : "on demand");
        reader->refine_region(roi);
        ASSERT_TRUE(reader->partially_refined());
        EXPECT_TRUE(ct::same_bits(reader->values(), regional));
        reader->refine();  // backfills level 1, then restores level 0
        EXPECT_FALSE(reader->partially_refined());
        EXPECT_TRUE(ct::same_bits(reader->values(), expected[0]));
      }
    }
  }
}

// ------------------------------------------- partial-flag lifecycle (fix) --

TEST(RoiRefine, FullRefineAfterRegionalBackfillsAndClearsFlag) {
  // Regression: partially_refined() used to latch forever. A full refine()
  // after a regional step must first backfill the delta chunks the ROI
  // skipped (making that level exact again) and then clear the flag.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(40, 40, 2.0, 2.0, 0.1, 29), 8);
  const auto values = bump_field(mesh, {1.6, 1.6}, 0.12);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";  // lossless: restored values comparable bitwise
  config.delta_chunks = 16;
  cc::refactor_and_write(h, "bf.bp", "v", mesh, values, config);

  cc::ProgressiveReader reader(h, "bf.bp", "v");
  reader.refine_region({{1.3, 1.3}, {1.9, 1.9}});  // partial coverage
  ASSERT_TRUE(reader.partially_refined());
  const std::uint32_t after_roi = reader.current_level();

  const auto backfill_step = reader.refine();  // backfill + next level
  EXPECT_FALSE(reader.partially_refined());
  EXPECT_EQ(reader.current_level(), after_roi - 1);
  EXPECT_GT(backfill_step.bytes_read, 0u);

  // The backfilled state is bitwise the state of a reader that never took
  // the regional detour.
  auto h2 = tiers();
  cc::refactor_and_write(h2, "bf.bp", "v", mesh, values, config);
  cc::ProgressiveReader straight(h2, "bf.bp", "v");
  straight.refine_to(reader.current_level());
  ASSERT_EQ(reader.values().size(), straight.values().size());
  for (std::size_t i = 0; i < reader.values().size(); ++i) {
    ASSERT_EQ(reader.values()[i], straight.values()[i]) << "vertex " << i;
  }
}

TEST(RoiRefine, FullCoverageRoiLeavesPartialFlagClear) {
  // An ROI covering every chunk skips nothing: no flag, nothing to backfill.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.1, 31), 8);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.2);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "fpc";
  config.delta_chunks = 8;
  cc::refactor_and_write(h, "fc.bp", "v", mesh, values, config);

  cc::ProgressiveReader reader(h, "fc.bp", "v");
  reader.refine_region({{-10.0, -10.0}, {10.0, 10.0}});
  EXPECT_FALSE(reader.partially_refined());
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_LE(cu::max_abs_error(values, reader.values()), 1e-13);
}

TEST(RoiRefine, StackedPartialRegionsStaySticky) {
  // Two partial regional steps stack estimate-only regions from different
  // levels; no single backfill can reconcile that, so the flag stays set.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(40, 40, 2.0, 2.0, 0.1, 37), 8);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.15);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  config.delta_chunks = 16;
  cc::refactor_and_write(h, "st.bp", "v", mesh, values, config);

  cc::ProgressiveReader reader(h, "st.bp", "v");
  reader.refine_region({{0.2, 0.2}, {0.8, 0.8}});
  ASSERT_TRUE(reader.partially_refined());
  reader.refine_region({{0.3, 0.3}, {0.7, 0.7}});
  EXPECT_TRUE(reader.at_full_accuracy());
  EXPECT_TRUE(reader.partially_refined());  // sticky by design once stacked
}

// ------------------------------------------------- one fetch path (depth) --

// Regional refinement and its backfill read through the same ring-backed
// fetch as a full refine. At any io depth they must leave the reader in the
// exact state of the blocking depth-1 reader — fields, partial flag and bytes
// read, with and without a geometry cache — and never charge more I/O.
class RoiIoDepth : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RoiIoDepth, RegionalAndBackfillMatchBlockingReader) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(40, 40, 2.0, 2.0, 0.1, 29), 8);
  const auto values = bump_field(mesh, {1.6, 1.6}, 0.12);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";
  config.delta_chunks = 16;
  cc::refactor_and_write(h, "d.bp", "v", mesh, values, config);
  const auto geometry = cc::GeometryCache::load(h, "d.bp", "v");

  struct State {
    cm::Field values;
    bool partial = false;
    std::size_t bytes_read = 0;
    double io_seconds = 0.0;
  };
  // Regional step then a backfilling full step; then two stacked regional
  // steps (the sticky case).
  const auto walk = [&](std::uint32_t depth, const cc::GeometryCache* g) {
    cc::ReaderOptions opts;
    opts.io.depth = depth;
    std::vector<State> states;
    const auto record = [&states](const cc::ProgressiveReader& r,
                                  const cc::RetrievalTimings& step) {
      states.push_back({r.values(), r.partially_refined(), step.bytes_read,
                        step.io_seconds});
    };
    cc::ProgressiveReader backfilled(h, "d.bp", "v", g, opts);
    record(backfilled, backfilled.refine_region({{1.3, 1.3}, {1.9, 1.9}}));
    record(backfilled, backfilled.refine());
    cc::ProgressiveReader stacked(h, "d.bp", "v", g, opts);
    record(stacked, stacked.refine_region({{0.2, 0.2}, {0.8, 0.8}}));
    record(stacked, stacked.refine_region({{0.3, 0.3}, {0.7, 0.7}}));
    return states;
  };

  const cc::GeometryCache* no_geometry = nullptr;
  for (const cc::GeometryCache* g : {no_geometry, &geometry}) {
    const auto blocking = walk(1, g);
    const auto deep = walk(GetParam(), g);
    ASSERT_EQ(blocking.size(), deep.size());
    for (std::size_t s = 0; s < blocking.size(); ++s) {
      EXPECT_EQ(blocking[s].partial, deep[s].partial) << "step " << s;
      EXPECT_EQ(blocking[s].bytes_read, deep[s].bytes_read) << "step " << s;
      EXPECT_LE(deep[s].io_seconds, blocking[s].io_seconds) << "step " << s;
      ASSERT_EQ(blocking[s].values.size(), deep[s].values.size());
      for (std::size_t i = 0; i < blocking[s].values.size(); ++i) {
        ASSERT_EQ(blocking[s].values[i], deep[s].values[i])
            << "step " << s << " vertex " << i;
      }
    }
    EXPECT_TRUE(blocking[0].partial);   // the ROI skipped chunks...
    EXPECT_FALSE(blocking[1].partial);  // ...the full step backfilled them
    EXPECT_TRUE(blocking[3].partial);   // stacked partial levels stay sticky
  }
}

INSTANTIATE_TEST_SUITE_P(IoDepth, RoiIoDepth, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& p) {
                           return "depth" + std::to_string(p.param);
                         });
