// Tests for the extension features: storage migration, byte-split
// refactoring, decimation replay, campaign writing, the geometry cache, and
// composed codec pipelines.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "compress/codec.hpp"
#include "compress/huffman.hpp"
#include "core/canopus.hpp"
#include "mesh/generators.hpp"
#include "reference_mapping.hpp"
#include "test_support.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace cp = canopus::compress;
namespace cu = canopus::util;
namespace si = canopus::sim;
namespace ct = canopus::test;

namespace {

cu::Bytes blob(std::size_t n, std::uint64_t seed = 1) {
  cu::Rng rng(seed);
  cu::Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.uniform_index(256));
  return b;
}

cm::Field wave_field(const cm::TriMesh& mesh, double phase = 0.0) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(3.0 * p.x + phase) * std::cos(2.0 * p.y) + 0.1 * phase;
  }
  return f;
}

}  // namespace

// --------------------------------------------------------------- migration --

TEST(Migration, MoveBetweenTiers) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1000), cs::lustre_spec(10000)});
  h.place("a", blob(100));
  ASSERT_EQ(h.find("a"), std::optional<std::size_t>(0));
  const auto io = h.migrate("a", 1);
  EXPECT_EQ(h.find("a"), std::optional<std::size_t>(1));
  EXPECT_GT(io.sim_seconds, 0.0);
  EXPECT_EQ(io.bytes, 100u);
  cu::Bytes out;
  h.read("a", out);
  EXPECT_EQ(out, blob(100));
  EXPECT_EQ(h.tier(0).used_bytes(), 0u);
}

TEST(Migration, SameTierIsNoop) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1000), cs::lustre_spec(10000)});
  h.place("a", blob(100));
  const auto io = h.migrate("a", 0);
  EXPECT_EQ(io.sim_seconds, 0.0);
  EXPECT_EQ(h.find("a"), std::optional<std::size_t>(0));
}

TEST(Migration, MissingObjectThrows) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1000)});
  EXPECT_THROW(h.migrate("ghost", 0), canopus::Error);
}

TEST(Migration, OverCapacityTargetThrows) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1000), cs::lustre_spec(50)});
  h.place("a", blob(100));
  EXPECT_THROW(h.migrate("a", 1), canopus::Error);
  // Object must still be readable from its original tier.
  EXPECT_EQ(h.find("a"), std::optional<std::size_t>(0));
}

// --------------------------------------------------------------- byte-split --

TEST(ByteSplit, FullMergeIsBitExact) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.1, 3);
  const auto values = wave_field(mesh);
  const std::uint8_t groups[] = {2, 2, 4};
  const auto split = cc::byte_split(values, groups);
  EXPECT_EQ(split.group_count(), 3u);
  const auto merged = cc::byte_merge(split, 3);
  ASSERT_EQ(merged.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(merged[i], values[i]);
  }
}

TEST(ByteSplit, PrefixMergeWithinRelativeError) {
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0, 0.1, 5);
  auto values = wave_field(mesh);
  for (auto& v : values) v += 2.0;  // keep away from zero for relative error
  const std::uint8_t groups[] = {3, 2, 3};
  const auto split = cc::byte_split(values, groups);
  std::size_t prefix = 0;
  for (std::size_t g = 1; g <= 3; ++g) {
    prefix += groups[g - 1];
    const auto merged = cc::byte_merge(split, g);
    const double rel = cc::byte_split_relative_error(prefix);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_LE(std::abs(merged[i] - values[i]),
                rel * std::abs(values[i]) + 1e-300)
          << "groups=" << g << " i=" << i;
    }
  }
}

TEST(ByteSplit, MorePrefixBytesMoreAccuracy) {
  const auto mesh = cm::make_rect_mesh(15, 15, 1.0, 1.0);
  const auto values = wave_field(mesh, 1.0);
  const std::uint8_t groups[] = {2, 2, 2, 2};
  const auto split = cc::byte_split(values, groups);
  double prev_err = 1e300;
  for (std::size_t g = 1; g <= 4; ++g) {
    const auto merged = cc::byte_merge(split, g);
    const double err = cu::max_abs_error(values, merged);
    EXPECT_LE(err, prev_err);
    prev_err = err;
  }
  EXPECT_EQ(prev_err, 0.0);
}

TEST(ByteSplit, TopPlanesCompressBetterThanTail) {
  // The point of the scheme: exponent/sign bytes are redundant across smooth
  // data, low mantissa bytes are noise.
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.1, 9);
  const auto values = wave_field(mesh);
  const std::uint8_t groups[] = {2, 6};
  const auto split = cc::byte_split(values, groups);
  const auto top = cp::huffman_encode(split.planes[0]);
  const auto tail = cp::huffman_encode(split.planes[1]);
  const double top_ratio =
      static_cast<double>(split.planes[0].size()) / static_cast<double>(top.size());
  const double tail_ratio =
      static_cast<double>(split.planes[1].size()) / static_cast<double>(tail.size());
  EXPECT_GT(top_ratio, 1.3);   // sign/exponent bytes are highly redundant
  EXPECT_LT(tail_ratio, 1.1);  // low mantissa bytes are noise-like
}

TEST(ByteSplit, BadGroupWidthsThrow) {
  const std::vector<double> xs{1.0, 2.0};
  const std::uint8_t not_eight[] = {2, 2};
  EXPECT_THROW(cc::byte_split(xs, not_eight), canopus::Error);
  const std::uint8_t ok[] = {4, 4};
  const auto split = cc::byte_split(xs, ok);
  EXPECT_THROW(cc::byte_merge(split, 0), canopus::Error);
  EXPECT_THROW(cc::byte_merge(split, 3), canopus::Error);
}

// ------------------------------------------------------- decimation replay --

TEST(Replay, ReproducesDirectDecimationExactly) {
  const auto mesh = cm::make_annulus_mesh(10, 60, 0.5, 1.0, 0.1, 7);
  const auto f0 = wave_field(mesh, 0.0);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto direct = cm::decimate(mesh, f0, opt);
  const auto replayed =
      cm::replay_decimation(direct.collapse_log, direct.survivor_slots, f0);
  ASSERT_EQ(replayed.size(), direct.values.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], direct.values[i]);
  }
}

TEST(Replay, OtherTimestepMatchesItsOwnDecimation) {
  // Shortest-first decimation is geometry-driven, so decimating timestep B
  // directly must equal replaying A's recipe on B's field.
  const auto mesh = cm::make_annulus_mesh(10, 60, 0.5, 1.0, 0.1, 7);
  const auto fa = wave_field(mesh, 0.0);
  const auto fb = wave_field(mesh, 2.5);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto recipe = cm::decimate(mesh, fa, opt);
  const auto direct_b = cm::decimate(mesh, fb, opt);
  const auto replay_b =
      cm::replay_decimation(recipe.collapse_log, recipe.survivor_slots, fb);
  ASSERT_EQ(replay_b.size(), direct_b.values.size());
  for (std::size_t i = 0; i < replay_b.size(); ++i) {
    EXPECT_EQ(replay_b[i], direct_b.values[i]);
  }
}

TEST(Replay, SizeMismatchThrows) {
  const auto mesh = cm::make_rect_mesh(6, 6, 1.0, 1.0);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto recipe = cm::decimate(mesh, wave_field(mesh), opt);
  cm::Field wrong(3, 0.0);
  EXPECT_THROW(
      cm::replay_decimation(recipe.collapse_log, recipe.survivor_slots, wrong),
      canopus::Error);
}

// ---------------------------------------------------------------- campaign --

TEST(Campaign, WritesAndReadsBackAllTimesteps) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 13);
  std::vector<cm::Field> steps;
  for (int t = 0; t < 5; ++t) {
    steps.push_back(wave_field(mesh, 0.3 * t));
  }
  cc::CampaignConfig config;
  config.refactor.levels = 3;
  config.refactor.codec = "zfp";
  config.refactor.error_bound = 1e-7;
  config.threads = 2;
  const auto report =
      cc::write_campaign(tiers, "camp.bp", "dpot", mesh, steps, config);
  EXPECT_EQ(report.timesteps, 5u);
  EXPECT_GT(report.stored_bytes, 0u);
  EXPECT_LT(report.stored_bytes, report.raw_bytes);
  EXPECT_GT(report.geometry_bytes, 0u);

  const auto geometry = cc::GeometryCache::load(tiers, "camp.bp", "dpot");
  EXPECT_EQ(geometry.level_count(), 3u);
  for (int t = 0; t < 5; ++t) {
    cc::ProgressiveReader reader(tiers, "camp.bp", cc::timestep_var("dpot", t),
                                 &geometry);
    reader.refine_to(0);
    ASSERT_EQ(reader.values().size(), steps[t].size()) << "t=" << t;
    EXPECT_LE(cu::max_abs_error(steps[t], reader.values()),
              ct::level_bound(config.refactor.error_bound, steps[t]))
        << "t=" << t;
  }
}

TEST(Campaign, GeometryStoredOncePerCampaign) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0, 0.1, 17);
  std::vector<cm::Field> steps(8, wave_field(mesh));
  cc::CampaignConfig config;
  config.refactor.levels = 3;
  const auto report =
      cc::write_campaign(tiers, "g.bp", "v", mesh, steps, config);
  // Geometry cost must not scale with timestep count: 8 timesteps of data
  // but a single geometry set (the L0 mesh, a collapse log per coarser
  // level, a mapping per delta level).
  canopus::adios::BpReader reader(tiers, "g.bp");
  const auto info = reader.inq_var("v");
  std::size_t meshes = 0, logs = 0, mappings = 0;
  for (const auto& b : info.blocks) {
    if (b.kind == canopus::adios::BlockKind::kMesh) ++meshes;
    if (b.kind == canopus::adios::BlockKind::kCollapseLog) ++logs;
    if (b.kind == canopus::adios::BlockKind::kMapping) ++mappings;
  }
  EXPECT_EQ(meshes, 1u);
  EXPECT_EQ(info.levels(canopus::adios::BlockKind::kMesh),
            std::vector<std::uint32_t>{0});
  EXPECT_EQ(logs, 2u);
  EXPECT_EQ(info.levels(canopus::adios::BlockKind::kCollapseLog),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(mappings, 2u);
  EXPECT_EQ(reader.attribute("group_size"), std::optional<std::string>("8"));
  EXPECT_GT(report.raw_bytes, 8u * report.geometry_bytes / 10u);
}

TEST(Campaign, RequiresShortestFirstPriority) {
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64 << 20)});
  const auto mesh = cm::make_rect_mesh(6, 6, 1.0, 1.0);
  std::vector<cm::Field> steps(1, wave_field(mesh));
  cc::CampaignConfig config;
  config.refactor.decimate.priority = cm::EdgePriority::kRandom;
  EXPECT_THROW(cc::write_campaign(tiers, "x.bp", "v", mesh, steps, config),
               canopus::Error);
}

TEST(Campaign, EmptyTimestepsThrow) {
  cs::StorageHierarchy tiers({cs::tmpfs_spec(1 << 20)});
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  EXPECT_THROW(cc::write_campaign(tiers, "x.bp", "v", mesh, {}, {}),
               canopus::Error);
}

TEST(Campaign, DeltasAndFieldsMatchReferenceMappingInEveryMode) {
  // The campaign's one-time mappings give the deltas and restored fields of
  // the reference mapping (the locator's three double weights per fine
  // vertex), bit for bit. The raw codec stores each delta as computed, and
  // each was taken against the coarser level as the reference restores it.
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 13);
  std::vector<cm::Field> steps;
  for (int t = 0; t < 3; ++t) steps.push_back(wave_field(mesh, 0.3 * t));
  for (auto mode : {cc::EstimateMode::kUniformThirds,
                    cc::EstimateMode::kBarycentric,
                    cc::EstimateMode::kGradient}) {
    SCOPED_TRACE(cc::to_string(mode));
    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
    cc::CampaignConfig config;
    config.refactor.levels = 3;
    config.refactor.codec = "raw";
    config.refactor.estimate = mode;
    config.threads = 2;
    cc::write_campaign(tiers, "camp.bp", "dpot", mesh, steps, config);

    // Timestep 0 decimates to the cascade the geometry was built from.
    cm::CascadeOptions copt;
    copt.levels = config.refactor.levels;
    copt.step = config.refactor.step;
    copt.decimate = config.refactor.decimate;
    const auto cascade = cm::build_cascade(mesh, steps[0], copt);
    const canopus::adios::BpReader raw(tiers, "camp.bp");
    const auto var0 = cc::timestep_var("dpot", 0);
    const auto restored = ct::reference_levels(tiers, "camp.bp", var0, "dpot", mode);
    for (std::uint32_t l = 0; l + 1 < copt.levels; ++l) {
      const auto& fine = cascade.levels[l];
      const auto& coarse = cascade.levels[l + 1];
      EXPECT_TRUE(ct::same_bits(
          ct::stored_delta(raw, var0, l, fine.mesh),
          ct::reference_delta(coarse.mesh, restored[l + 1], fine.values,
                              ct::reference_build_mapping(fine.mesh, coarse.mesh),
                              mode)))
          << "level " << l;
    }

    const auto geometry = cc::GeometryCache::load(tiers, "camp.bp", "dpot");
    for (std::size_t t = 0; t < steps.size(); ++t) {
      const auto var = cc::timestep_var("dpot", t);
      const auto expected =
          ct::reference_levels(tiers, "camp.bp", var, "dpot", mode);
      cc::ProgressiveReader reader(tiers, "camp.bp", var, &geometry);
      for (std::uint32_t l = copt.levels; l-- > 0;) {
        reader.refine_to(l);
        EXPECT_TRUE(ct::same_bits(reader.values(), expected[l]))
            << "t=" << t << " level " << l;
      }
    }
  }
}

// ---------------------------------------------------------- geometry cache --

TEST(GeometryCache, MappingBlocksAreIdenticalAcrossEstimateModes) {
  // Every Estimate mode stores the same mapping blocks, a triangle id per
  // fine vertex: the weight-reading modes derive their weights from
  // geometry. Both writers; the cache holds the triangles and nothing else.
  const auto mesh = cm::make_disk_mesh(10, 48, 1.0, 0.1, 23);
  const std::vector<cm::Field> steps{wave_field(mesh)};
  std::map<std::string, std::vector<cu::Bytes>> uniform_blocks;
  for (auto mode : {cc::EstimateMode::kUniformThirds,
                    cc::EstimateMode::kBarycentric,
                    cc::EstimateMode::kGradient}) {
    SCOPED_TRACE(cc::to_string(mode));
    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
    cc::CampaignConfig config;
    config.refactor.levels = 3;
    config.refactor.estimate = mode;
    cc::refactor_and_write(tiers, "w.bp", "v", mesh, steps[0], config.refactor);
    cc::write_campaign(tiers, "c.bp", "v", mesh, steps, config);
    for (const char* path : {"w.bp", "c.bp"}) {
      SCOPED_TRACE(path);
      const canopus::adios::BpReader reader(tiers, path);
      std::vector<cu::Bytes> blocks;
      for (std::uint32_t l = 0; l < 2; ++l) {
        blocks.push_back(
            reader.read_opaque("v", canopus::adios::BlockKind::kMapping, l));
      }
      if (mode == cc::EstimateMode::kUniformThirds) {
        uniform_blocks[path] = blocks;
      } else {
        EXPECT_EQ(blocks, uniform_blocks.at(path));
      }
      const auto geometry = cc::GeometryCache::load(tiers, path, "v");
      ASSERT_EQ(geometry.mappings.size(), 2u);
      for (std::size_t l = 0; l < 2; ++l) {
        EXPECT_EQ(geometry.mappings[l].size(), geometry.meshes[l].vertex_count());
      }
    }
  }
  static_assert(sizeof(cc::VertexMapping) ==
                sizeof(decltype(cc::VertexMapping::triangle)));
  static_assert(sizeof(decltype(cc::VertexMapping::triangle)::value_type) == 4);
}

TEST(GeometryCache, MatchesOnDemandReads) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_disk_mesh(10, 48, 1.0, 0.1, 23);
  const auto values = wave_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";
  cc::refactor_and_write(tiers, "gc.bp", "v", mesh, values, config);

  cc::RetrievalTimings one_time;
  const auto geometry = cc::GeometryCache::load(tiers, "gc.bp", "v", &one_time);
  EXPECT_GT(one_time.io_seconds, 0.0);
  EXPECT_GT(one_time.bytes_read, 0u);
  ASSERT_EQ(geometry.level_count(), 3u);
  ASSERT_EQ(geometry.mappings.size(), 2u);

  // A reader opened without a cache loads the same geometry at open and is
  // charged exactly its reads there; its steps then read what a cached
  // reader's steps read.
  cc::ProgressiveReader cached(tiers, "gc.bp", "v", &geometry);
  cc::ProgressiveReader plain(tiers, "gc.bp", "v");
  EXPECT_EQ(plain.cumulative().bytes_read,
            cached.cumulative().bytes_read + one_time.bytes_read);
  EXPECT_NEAR(plain.cumulative().io_seconds,
              cached.cumulative().io_seconds + one_time.io_seconds, 1e-12);
  while (!cached.at_full_accuracy()) {
    const auto a = cached.refine();
    const auto b = plain.refine();
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.io_seconds, b.io_seconds);
    EXPECT_TRUE(cached.current_mesh() == plain.current_mesh());
    EXPECT_EQ(cached.values(), plain.values());
  }
  EXPECT_TRUE(plain.at_full_accuracy());
}

namespace {

void expect_same_geometry(const cc::GeometryCache& got,
                          const cc::GeometryCache& want) {
  ASSERT_EQ(got.level_count(), want.level_count());
  for (std::size_t l = 0; l < want.level_count(); ++l) {
    const auto& gv = got.meshes[l].vertices();
    const auto& wv = want.meshes[l].vertices();
    ASSERT_EQ(gv.size(), wv.size()) << "level " << l;
    EXPECT_EQ(std::memcmp(gv.data(), wv.data(), wv.size() * sizeof(wv[0])), 0)
        << "level " << l;
    EXPECT_EQ(got.meshes[l].triangles(), want.meshes[l].triangles()) << "level " << l;
    EXPECT_EQ(got.order(l), want.order(l)) << "level " << l;
  }
  ASSERT_EQ(got.mappings.size(), want.mappings.size());
  for (std::size_t l = 0; l < want.mappings.size(); ++l) {
    EXPECT_EQ(got.mappings[l].triangle, want.mappings[l].triangle) << "level " << l;
  }
}

}  // namespace

// The public load's caller keeps the decoded geometry, so a block-cache miss
// admits nothing; a resident copy still serves the read. A reader that loads
// geometry at its own open admits the blocks, and later loads are served
// from them. (Opening the container admits its metadata object, which every
// open reads.)
TEST(GeometryCache, LoadOnACachedHierarchyAdmitsNothing) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_disk_mesh(10, 48, 1.0, 0.1, 23);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  cc::refactor_and_write(tiers, "adm.bp", "v", mesh, wave_field(mesh), config);
  const auto cacheless = cc::GeometryCache::load(tiers, "adm.bp", "v");

  auto cache = std::make_shared<canopus::cache::BlockCache>();
  tiers.attach_block_cache(cache);
  const canopus::adios::BpReader container(tiers, "adm.bp");
  std::vector<std::string> geometry_keys;
  for (const auto& b : container.inq_var("v").blocks) {
    using canopus::adios::BlockKind;
    if (b.kind == BlockKind::kMesh || b.kind == BlockKind::kCollapseLog ||
        b.kind == BlockKind::kMapping) {
      geometry_keys.push_back(b.object_key);
    }
  }
  ASSERT_EQ(geometry_keys.size(), 5u);  // the L0 mesh, 2 logs, 2 mappings
  const std::size_t opened = cache->occupancy_bytes();
  cc::RetrievalTimings cold;
  const auto loaded = cc::GeometryCache::load(container, "v", &cold);
  EXPECT_EQ(cache->occupancy_bytes(), opened);
  EXPECT_GT(cold.io_seconds, 0.0);
  expect_same_geometry(loaded, cacheless);
  const auto by_path = cc::GeometryCache::load(tiers, "adm.bp", "v");
  EXPECT_EQ(cache->occupancy_bytes(), opened);
  expect_same_geometry(by_path, cacheless);
  for (const auto& key : geometry_keys) EXPECT_FALSE(cache->contains(key)) << key;

  const cc::ProgressiveReader reader(tiers, "adm.bp", "v");
  for (const auto& key : geometry_keys) EXPECT_TRUE(cache->contains(key)) << key;
  const std::size_t after_open = cache->occupancy_bytes();
  cc::RetrievalTimings warm;
  const auto served = cc::GeometryCache::load(container, "v", &warm);
  EXPECT_EQ(cache->occupancy_bytes(), after_open);
  EXPECT_EQ(warm.io_seconds, 0.0);
  EXPECT_EQ(warm.bytes_read, cold.bytes_read);
  expect_same_geometry(served, cacheless);
}

TEST(GeometryCache, MismatchedCacheRejected) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(12, 12, 1.0, 1.0);
  cc::RefactorConfig two_levels, three_levels;
  two_levels.levels = 2;
  three_levels.levels = 3;
  cc::refactor_and_write(tiers, "a.bp", "v", mesh, wave_field(mesh), two_levels);
  cc::refactor_and_write(tiers, "b.bp", "v", mesh, wave_field(mesh), three_levels);
  const auto geometry = cc::GeometryCache::load(tiers, "a.bp", "v");
  EXPECT_THROW(cc::ProgressiveReader(tiers, "b.bp", "v", &geometry),
               canopus::Error);
}

// ------------------------------------------------------------- byte codecs --

TEST(Pipelines, StageCanShrinkHeadOutput) {
  // Raw doubles of a smooth field carry redundant exponent bytes that the
  // huffman byte coder removes.
  const auto mesh = cm::make_rect_mesh(50, 50, 1.0, 1.0);
  const auto values = wave_field(mesh);
  const auto plain = cp::make_codec("raw")->encode(values, 0.0);
  const auto coded = cp::make_codec("huffman")->encode(values, 0.0);
  EXPECT_LT(coded.size(), plain.size());
}

// Codecs do not compose: a "head+stage" name is an unknown codec.
TEST(Pipelines, BadStageNameThrows) {
  for (const char* name : {"zfp+lzss", "sz+huffman", "zfp+gzip", "zfp+", "nope+lzss"}) {
    try {
      cp::make_codec(name);
      ADD_FAILURE() << name << " constructed";
    } catch (const canopus::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown codec"), std::string::npos)
          << e.what();
    }
  }
}

// The byte coders serve as a refactor codec on their own: lossless, so the
// restored field is the input up to the Estimate's rounding.
TEST(Pipelines, UsableInsideRefactorer) {
  const auto mesh = cm::make_annulus_mesh(8, 48, 0.5, 1.0, 0.1, 31);
  const auto values = wave_field(mesh);
  for (const char* codec : {"lzss", "huffman"}) {
    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
    cc::RefactorConfig config;
    config.levels = 3;
    config.codec = codec;
    cc::refactor_and_write(tiers, "pipe.bp", "v", mesh, values, config);
    cc::ProgressiveReader reader(tiers, "pipe.bp", "v");
    reader.refine_to(0);
    EXPECT_LE(cu::max_abs_error(values, reader.values()), 1e-12) << codec;
  }
}

// ------------------------------------------------------- failure injection --

TEST(FailureInjection, CorruptDeltaPayloadSurfacesAsError) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.1, 37);
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "sz";
  config.error_bound = 1e-4;
  cc::refactor_and_write(tiers, "corrupt.bp", "v", mesh, wave_field(mesh),
                         config);
  // Overwrite the delta block's object with garbage, keeping metadata intact.
  canopus::adios::BpReader meta(tiers, "corrupt.bp");
  const auto info = meta.inq_var("v");
  const auto* rec = info.block(canopus::adios::BlockKind::kDelta, 0);
  ASSERT_NE(rec, nullptr);
  const auto where = tiers.find(rec->object_key);
  ASSERT_TRUE(where.has_value());
  tiers.write_to(*where, rec->object_key, blob(rec->stored_bytes, 99));
  cc::ProgressiveReader reader(tiers, "corrupt.bp", "v");
  EXPECT_THROW(reader.refine(), canopus::Error);
}

TEST(FailureInjection, TruncatedMetadataSurfacesAsError) {
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64 << 20)});
  const auto mesh = cm::make_rect_mesh(8, 8, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 2;
  cc::refactor_and_write(tiers, "trunc.bp", "v", mesh, wave_field(mesh), config);
  cu::Bytes meta_bytes;
  tiers.read(canopus::adios::metadata_key("trunc.bp"), meta_bytes);
  meta_bytes.resize(meta_bytes.size() / 2);
  tiers.write_to(0, canopus::adios::metadata_key("trunc.bp"), meta_bytes);
  EXPECT_THROW(canopus::adios::BpReader(tiers, "trunc.bp"), canopus::Error);
}

TEST(VariableGroup, MultipleVariablesShareOneGeometry) {
  // XGC writes dpot, density and temperature over the same mesh; the group
  // writer stores one mesh/mapping set for all of them.
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_annulus_mesh(10, 60, 0.5, 1.0, 0.1, 71);
  std::vector<std::pair<std::string, cm::Field>> group;
  group.emplace_back("dpot", wave_field(mesh, 0.0));
  group.emplace_back("density", wave_field(mesh, 1.0));
  group.emplace_back("temperature", wave_field(mesh, 2.0));
  cc::CampaignConfig config;
  config.refactor.levels = 3;
  config.refactor.codec = "zfp";
  config.refactor.error_bound = 1e-7;
  const auto report = cc::write_variable_group(tiers, "grp.bp", "geometry",
                                               mesh, group, config);
  EXPECT_EQ(report.timesteps, 3u);

  const auto geometry = cc::GeometryCache::load(tiers, "grp.bp", "geometry");
  for (const auto& [name, truth] : group) {
    cc::ProgressiveReader reader(tiers, "grp.bp", name, &geometry);
    reader.refine_to(0);
    EXPECT_LE(cu::max_abs_error(truth, reader.values()), 3e-7) << name;
  }
  // Exactly one L0 mesh and one collapse log per coarser level in the whole
  // container.
  canopus::adios::BpReader raw(tiers, "grp.bp");
  std::size_t mesh_blocks = 0, log_blocks = 0;
  for (const auto& var : raw.variables()) {
    for (const auto& b : raw.inq_var(var).blocks) {
      if (b.kind == canopus::adios::BlockKind::kMesh) ++mesh_blocks;
      if (b.kind == canopus::adios::BlockKind::kCollapseLog) ++log_blocks;
    }
  }
  EXPECT_EQ(mesh_blocks, 1u);
  EXPECT_EQ(log_blocks, 2u);
}
