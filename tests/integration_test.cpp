// Cross-module integration tests: the full write -> place -> read -> restore
// -> analyze pipeline on all three evaluation datasets, with both memory- and
// file-backed tiers, parameterized over codecs and level counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "adios/bp.hpp"
#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "compress/lzss.hpp"
#include "core/canopus.hpp"
#include "mesh/validate.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/stats.hpp"

#include "test_support.hpp"

namespace ad = canopus::adios;
namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cp = canopus::compress;
namespace cs = canopus::storage;
namespace cu = canopus::util;
namespace si = canopus::sim;
namespace an = canopus::analytics;

namespace {

si::Dataset small_dataset(const std::string& name) {
  if (name == "xgc1") {
    si::XgcOptions o;
    o.rings = 24;
    o.sectors = 120;
    return si::make_xgc_dataset(o);
  }
  if (name == "genasis") {
    si::GenasisOptions o;
    o.rings = 32;
    o.sectors = 128;
    return si::make_genasis_dataset(o);
  }
  si::CfdOptions o;
  o.nx = 48;
  o.ny = 32;
  return si::make_cfd_dataset(o);
}

}  // namespace

// Sweep: every dataset x codec x level count survives the full round trip
// within the accumulated error budget. A "zfp+lzss" row writes with zfp and
// carries every stored base and delta payload through the standalone lzss
// byte coder, which must hand it back unchanged.
class FullPipeline
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::size_t>> {};

TEST_P(FullPipeline, WriteReadRestoreWithinBudget) {
  const auto& [dataset_name, codec_name, levels] = GetParam();
  const auto plus = codec_name.find('+');
  const auto ds = small_dataset(dataset_name);
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = levels;
  config.codec = codec_name.substr(0, plus);
  config.error_bound = 1e-5;
  const auto report = cc::refactor_and_write(tiers, "it.bp", ds.variable,
                                             ds.mesh, ds.values, config);
  EXPECT_EQ(report.products.size(), levels);
  EXPECT_EQ(report.level_vertices.size(), levels);

  if (plus != std::string::npos) {
    ASSERT_EQ(codec_name.substr(plus + 1), "lzss");
    std::size_t carried = 0;
    for (const auto& block : ad::BpReader(tiers, "it.bp").inq_var(ds.variable).blocks) {
      if (block.kind != ad::BlockKind::kBase && block.kind != ad::BlockKind::kDelta) {
        continue;
      }
      EXPECT_EQ(block.codec, config.codec);
      cu::Bytes payload;
      tiers.read(block.object_key, payload);
      EXPECT_EQ(cp::lzss_decode(cp::lzss_encode(payload)), payload)
          << block.object_key;
      ++carried;
    }
    EXPECT_EQ(carried, levels);
  }

  cc::ProgressiveReader reader(tiers, "it.bp", ds.variable);
  EXPECT_EQ(reader.level_count(), levels);
  while (!reader.at_full_accuracy()) {
    EXPECT_TRUE(cm::validate(reader.current_mesh()).ok);
    reader.refine();
  }
  ASSERT_EQ(reader.values().size(), ds.values.size());
  // Every delta was taken against the level the reader restores: the
  // codec's bound holds at full accuracy whatever the level count.
  EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
            canopus::test::level_bound(config.error_bound, ds.values));
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsCodecsLevels, FullPipeline,
    ::testing::Combine(::testing::Values("xgc1", "genasis", "cfd"),
                       ::testing::Values("zfp", "sz", "fpc", "zfp+lzss"),
                       ::testing::Values(std::size_t{2}, std::size_t{4})),
    [](const auto& param_info) {
      std::string codec = std::get<1>(param_info.param);
      std::replace(codec.begin(), codec.end(), '+', '_');
      return std::get<0>(param_info.param) + "_" + codec + "_" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Integration, FileBackedTiersEndToEnd) {
  namespace fs = std::filesystem;
  const auto root = fs::temp_directory_path() / "canopus_it_tiers";
  fs::remove_all(root);
  cs::TierSpec fast = cs::tmpfs_spec(8 << 20);
  cs::TierSpec slow = cs::lustre_spec(1 << 30);
  slow.backend = cs::Backend::kFile;
  slow.root_dir = (root / "lustre").string();
  cs::StorageHierarchy tiers({fast, slow});

  const auto ds = small_dataset("xgc1");
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  cc::refactor_and_write(tiers, "file.bp", ds.variable, ds.mesh, ds.values,
                         config);
  // Deltas must actually be on disk.
  EXPECT_FALSE(fs::is_empty(root / "lustre"));

  cc::ProgressiveReader reader(tiers, "file.bp", ds.variable);
  reader.refine_to(0);
  EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
            canopus::test::level_bound(config.error_bound, ds.values));
  fs::remove_all(root);
}

TEST(Integration, TwoVariablesInOneContainerViaSeparatePaths) {
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(16 << 20), cs::lustre_spec(1 << 30)});
  const auto xgc = small_dataset("xgc1");
  const auto cfd = small_dataset("cfd");
  cc::RefactorConfig config;
  config.levels = 2;
  cc::refactor_and_write(tiers, "a.bp", xgc.variable, xgc.mesh, xgc.values,
                         config);
  cc::refactor_and_write(tiers, "b.bp", cfd.variable, cfd.mesh, cfd.values,
                         config);
  cc::ProgressiveReader ra(tiers, "a.bp", xgc.variable);
  cc::ProgressiveReader rb(tiers, "b.bp", cfd.variable);
  ra.refine_to(0);
  rb.refine_to(0);
  EXPECT_EQ(ra.values().size(), xgc.values.size());
  EXPECT_EQ(rb.values().size(), cfd.values.size());
}

TEST(Integration, BlobAnalysisDegradesGracefullyWithDecimation) {
  // The Fig. 8 story as a regression test: blob counts are non-increasing
  // (within one blob of slack) and overlap with full accuracy stays high.
  si::XgcOptions opt;
  opt.rings = 48;
  opt.sectors = 240;
  const auto ds = si::make_xgc_dataset(opt);
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(16 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 5;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  cc::refactor_and_write(tiers, "blob.bp", "dpot", ds.mesh, ds.values, config);

  const auto bounds = ds.mesh.bounds();
  const double hi = *std::max_element(ds.values.begin(), ds.values.end());
  an::BlobParams params;
  params.min_threshold = 10;
  params.max_threshold = 200;
  params.min_area = 60;

  auto blobs_at = [&](const cm::TriMesh& mesh, const cm::Field& values) {
    const auto raster = an::rasterize(mesh, values, 240, 240, bounds, 0.0);
    return an::detect_blobs(an::to_gray8(raster, 0.0, hi), 240, 240, params);
  };

  cc::ProgressiveReader reader(tiers, "blob.bp", "dpot");
  std::vector<std::vector<an::Blob>> per_level;
  for (;;) {
    per_level.push_back(blobs_at(reader.current_mesh(), reader.values()));
    if (reader.at_full_accuracy()) break;
    reader.refine();
  }
  const auto& reference = per_level.back();  // L0
  ASSERT_GE(reference.size(), 3u);
  for (std::size_t i = 0; i + 1 < per_level.size(); ++i) {
    // Coarser levels (earlier entries) never invent many blobs...
    EXPECT_LE(per_level[i].size(), reference.size() + 1) << "level entry " << i;
    // ...and what they find overlaps the truth.
    EXPECT_GE(an::overlap_ratio(per_level[i], reference), 0.7)
        << "level entry " << i;
  }
}

TEST(Integration, ProportionalTierAllocationBypassWorks) {
  // Section IV-B's proportional-allocation assumption: fast tier sized at a
  // fraction of the output; oversized products overflow downward and the
  // container remains fully readable.
  const auto ds = small_dataset("genasis");
  const std::size_t raw = ds.values.size() * sizeof(double);
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(raw / 8), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  const auto report = cc::refactor_and_write(tiers, "p.bp", ds.variable,
                                             ds.mesh, ds.values, config);
  bool spilled = false;
  for (const auto& p : report.products) {
    if (p.tier == 1) spilled = true;
  }
  EXPECT_TRUE(spilled);
  cc::ProgressiveReader reader(tiers, "p.bp", ds.variable);
  reader.refine_to(0);
  EXPECT_EQ(reader.values().size(), ds.values.size());
}

TEST(Integration, DegradedPipelineStillRefinesUnderSlowTierFaults) {
  // End-to-end robustness: refactor with replicas, then run the progressive
  // read with 10% injected read faults on the slow tier. The pipeline must
  // reach at least one level beyond the base without throwing, and the
  // retry counters must show the fault path actually ran.
  const auto ds = small_dataset("xgc1");
  const std::size_t raw = ds.values.size() * sizeof(double);
  cs::StorageHierarchy tiers({cs::tmpfs_spec(raw), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  cc::refactor_and_write(tiers, "degraded.bp", ds.variable, ds.mesh,
                         ds.values, config);

  auto injector = std::make_shared<cs::FaultInjector>(42);
  cs::FaultProfile profile;
  profile.read_error = 0.10;
  injector->set_profile(1, profile);
  tiers.attach_fault_injector(injector);
  cs::RetryPolicy retry;
  retry.max_attempts = 8;
  tiers.set_retry_policy(retry);

  // No geometry cache: the open loads the L0 mesh, the collapse logs and the
  // mappings from the faulted tier, and each step its delta, exercising
  // retries on every block kind; the open charges its retries too.
  cc::ProgressiveReader reader(tiers, "degraded.bp", ds.variable);
  const auto base_level = reader.current_level();
  while (!reader.at_full_accuracy() &&
         reader.last_status() != cc::RefineStatus::kDegraded) {
    reader.refine();  // must never throw, whatever the tier does
  }
  EXPECT_LT(reader.current_level(), base_level);  // >= base+1 accuracy
  EXPECT_GT(reader.cumulative().retries, 0u);     // the faults actually fired
  EXPECT_EQ(reader.cumulative().retries, injector->counters().read_errors +
                                             injector->counters().corruptions);
  if (reader.at_full_accuracy()) {
    EXPECT_LE(cu::max_abs_error(ds.values, reader.values()),
              canopus::test::level_bound(config.error_bound, ds.values));
  }
}

TEST(Integration, CampaignPlusGeometryCachePlusAnalysis) {
  // Campaign write, shared geometry, per-timestep progressive analysis.
  si::XgcOptions opt;
  opt.rings = 24;
  opt.sectors = 120;
  const auto ds = si::make_xgc_dataset(opt);
  std::vector<cm::Field> steps;
  for (int t = 0; t < 3; ++t) {
    cm::Field f = ds.values;
    for (auto& x : f) x *= 1.0 + 0.1 * t;
    steps.push_back(std::move(f));
  }
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(32 << 20), cs::lustre_spec(1 << 30)});
  cc::CampaignConfig config;
  config.refactor.levels = 3;
  config.refactor.error_bound = 1e-6;
  config.threads = 2;
  cc::write_campaign(tiers, "camp.bp", "dpot", ds.mesh, steps, config);
  const auto geometry = cc::GeometryCache::load(tiers, "camp.bp", "dpot");
  for (int t = 0; t < 3; ++t) {
    cc::ProgressiveReader reader(tiers, "camp.bp", cc::timestep_var("dpot", t),
                                 &geometry);
    // Base-level analysis is enough to see the amplitude trend across steps.
    cu::RunningStats st;
    st.add(reader.values());
    EXPECT_GT(st.max(), 0.0) << "t=" << t;
    reader.refine_to(0);
    EXPECT_LE(cu::max_abs_error(steps[t], reader.values()),
              canopus::test::level_bound(config.refactor.error_bound, steps[t]))
        << "t=" << t;
  }
}
