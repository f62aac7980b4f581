// Tests for the analytics module: rasterization, 8-bit quantization, blob
// detection (synthetic images with known blobs), and blob overlap metrics.

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "mesh/generators.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace an = canopus::analytics;
namespace cm = canopus::mesh;
namespace cu = canopus::util;

namespace {

/// Paints gaussian bright spots onto a dark byte image.
std::vector<std::uint8_t> synthetic_image(
    std::size_t w, std::size_t h,
    const std::vector<std::tuple<double, double, double>>& spots,  // x, y, sigma
    double amplitude = 220.0, double background = 0.0) {
  std::vector<std::uint8_t> img(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      double v = background;
      for (const auto& [cx, cy, sigma] : spots) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        v += amplitude * std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma));
      }
      img[y * w + x] = static_cast<std::uint8_t>(std::min(v, 255.0));
    }
  }
  return img;
}

an::BlobParams default_params() {
  an::BlobParams p;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.min_area = 20;
  return p;
}

}  // namespace

// --------------------------------------------------------------- raster --

TEST(Raster, LinearFieldSampledExactly) {
  const auto mesh = cm::make_rect_mesh(16, 16, 1.0, 1.0, 0.2, 4);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 2.0 * p.x + 3.0 * p.y;
  }
  const auto raster = an::rasterize(mesh, f, 32, 32, mesh.bounds());
  for (std::size_t y = 4; y < 28; ++y) {
    for (std::size_t x = 4; x < 28; ++x) {
      if (!raster.inside[y * 32 + x]) continue;
      const double px = (static_cast<double>(x) + 0.5) / 32.0;
      const double py = (static_cast<double>(y) + 0.5) / 32.0;
      EXPECT_NEAR(raster.at(x, y), 2.0 * px + 3.0 * py, 1e-9);
    }
  }
}

TEST(Raster, OutsidePixelsCarryBackground) {
  // Annulus: the central hole must stay at the background value.
  const auto mesh = cm::make_annulus_mesh(6, 48, 0.5, 1.0);
  const cm::Field f(mesh.vertex_count(), 7.0);
  const auto raster = an::rasterize(mesh, f, 64, 64, mesh.bounds(), -1.0);
  // Center pixel is inside the hole.
  EXPECT_FALSE(raster.inside[32 * 64 + 32]);
  EXPECT_EQ(raster.at(32, 32), -1.0);
  // Some pixel over the annulus body is inside.
  EXPECT_TRUE(raster.inside[32 * 64 + 2]);
  EXPECT_NEAR(raster.at(2, 32), 7.0, 1e-9);
}

TEST(Raster, Gray8QuantizationClampsAndScales) {
  an::RasterField f;
  f.width = 3;
  f.height = 1;
  f.pixels = {-5.0, 0.5, 99.0};
  f.inside = {true, true, true};
  const auto g = an::to_gray8(f, 0.0, 1.0);
  EXPECT_EQ(g[0], 0);
  EXPECT_EQ(g[1], 128);
  EXPECT_EQ(g[2], 255);
}

TEST(Raster, SizeMismatchThrows) {
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  cm::Field wrong(3, 0.0);
  EXPECT_THROW(an::rasterize(mesh, wrong, 8, 8, mesh.bounds()), canopus::Error);
}

// ----------------------------------------------------------------- blobs --

TEST(Blob, FindsIsolatedSpots) {
  const auto img = synthetic_image(200, 200,
                                   {{50, 50, 8}, {150, 60, 10}, {100, 150, 7}});
  const auto blobs = an::detect_blobs(img, 200, 200, default_params());
  EXPECT_EQ(blobs.size(), 3u);
}

TEST(Blob, CentersAreAccurate) {
  const auto img = synthetic_image(120, 120, {{40.0, 70.0, 6.0}});
  const auto blobs = an::detect_blobs(img, 120, 120, default_params());
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].center.x, 40.0, 1.5);
  EXPECT_NEAR(blobs[0].center.y, 70.0, 1.5);
  EXPECT_GT(blobs[0].diameter, 5.0);
  EXPECT_GT(blobs[0].area, default_params().min_area);
}

TEST(Blob, EmptyImageHasNoBlobs) {
  const std::vector<std::uint8_t> img(100 * 100, 0);
  EXPECT_TRUE(an::detect_blobs(img, 100, 100, default_params()).empty());
}

TEST(Blob, MinAreaFiltersSmallSpots) {
  // sigma 1.5 spot: even at the lowest threshold its bright area stays
  // below ~45 px^2, so min_area = 60 must reject it at every slice.
  const auto img = synthetic_image(200, 200, {{60, 60, 12}, {150, 150, 1.5}});
  auto params = default_params();
  params.min_area = 60;
  const auto blobs = an::detect_blobs(img, 200, 200, params);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].center.x, 60.0, 2.0);
}

TEST(Blob, HigherMinThresholdDropsFaintBlobs) {
  // One bright and one faint spot; Config2's high minThreshold (150) must
  // drop the faint one while Config1 (10) keeps both.
  auto img = synthetic_image(200, 200, {{60, 60, 9}});
  const auto faint = synthetic_image(200, 200, {{150, 150, 9}}, 100.0);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>(
        std::min<int>(255, img[i] + faint[i]));
  }
  auto config1 = default_params();
  config1.min_threshold = 10;
  auto config2 = default_params();
  config2.min_threshold = 150;
  EXPECT_EQ(an::detect_blobs(img, 200, 200, config1).size(), 2u);
  EXPECT_EQ(an::detect_blobs(img, 200, 200, config2).size(), 1u);
}

TEST(Blob, TouchingBlobsMergeWhenClose) {
  // Two overlapping gaussians closer than minDistBetweenBlobs act as one.
  const auto img = synthetic_image(200, 200, {{100, 100, 8}, {106, 100, 8}});
  auto params = default_params();
  params.min_dist_between_blobs = 15.0;
  const auto blobs = an::detect_blobs(img, 200, 200, params);
  EXPECT_EQ(blobs.size(), 1u);
}

TEST(Blob, DiagonalConnectivityIsOneComponent) {
  // A diagonal line of bright pixels: 8-connectivity -> one component.
  std::vector<std::uint8_t> img(64 * 64, 0);
  for (std::size_t i = 10; i < 40; ++i) img[i * 64 + i] = 255;
  an::BlobParams p;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.min_area = 5;
  p.min_repeatability = 2;
  const auto blobs = an::detect_blobs(img, 64, 64, p);
  EXPECT_EQ(blobs.size(), 1u);
}

TEST(Blob, SummarizeAggregates) {
  std::vector<an::Blob> blobs(3);
  blobs[0].diameter = 10;
  blobs[0].area = 100;
  blobs[1].diameter = 20;
  blobs[1].area = 300;
  blobs[2].diameter = 30;
  blobs[2].area = 500;
  const auto s = an::summarize(blobs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean_diameter, 20.0);
  EXPECT_DOUBLE_EQ(s.aggregate_area, 900.0);
  const auto empty = an::summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean_diameter, 0.0);
}

TEST(Blob, OverlapRatioDefinition) {
  an::Blob a;  // at origin, radius 5
  a.center = {0, 0};
  a.diameter = 10;
  an::Blob b = a;  // 8 px away: 8 < 5 + 5 -> overlaps
  b.center = {8, 0};
  an::Blob c = a;  // 20 px away: no overlap
  c.center = {20, 0};
  EXPECT_DOUBLE_EQ(an::overlap_ratio({b}, {a}), 1.0);
  EXPECT_DOUBLE_EQ(an::overlap_ratio({c}, {a}), 0.0);
  EXPECT_DOUBLE_EQ(an::overlap_ratio({b, c}, {a}), 0.5);
  EXPECT_DOUBLE_EQ(an::overlap_ratio({}, {a}), 1.0);
}

TEST(Blob, DetectionIsDeterministic) {
  cu::Rng rng(5);
  std::vector<std::tuple<double, double, double>> spots;
  for (int i = 0; i < 5; ++i) {
    spots.emplace_back(rng.uniform(20, 180), rng.uniform(20, 180),
                       rng.uniform(5, 10));
  }
  const auto img = synthetic_image(200, 200, spots);
  const auto a = an::detect_blobs(img, 200, 200, default_params());
  const auto b = an::detect_blobs(img, 200, 200, default_params());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].center.x, b[i].center.x);
    EXPECT_EQ(a[i].area, b[i].area);
  }
}

// -------------------------------------------------- parameterized configs --

// Sweep the paper's three configs over a fixed synthetic scene and verify
// the monotone relationships between their parameters and the results.
class BlobConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlobConfigSweep, DetectsConsistently) {
  const auto img = synthetic_image(
      240, 240, {{60, 60, 10}, {180, 60, 7}, {60, 180, 5}, {180, 180, 12}});
  an::BlobParams p;
  p.threshold_step = 10;
  switch (GetParam()) {
    case 1: p.min_threshold = 10;  p.max_threshold = 200; p.min_area = 100; break;
    case 2: p.min_threshold = 150; p.max_threshold = 200; p.min_area = 100; break;
    case 3: p.min_threshold = 10;  p.max_threshold = 200; p.min_area = 200; break;
  }
  const auto blobs = an::detect_blobs(img, 240, 240, p);
  // Config1 is the most permissive: it must find at least as many blobs as
  // the stricter variants.
  an::BlobParams base;
  base.min_threshold = 10;
  base.max_threshold = 200;
  base.min_area = 100;
  const auto baseline = an::detect_blobs(img, 240, 240, base);
  EXPECT_LE(blobs.size(), baseline.size());
  // Everything any config finds overlaps the permissive set.
  EXPECT_DOUBLE_EQ(an::overlap_ratio(blobs, baseline), 1.0);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, BlobConfigSweep,
                         ::testing::Values(1, 2, 3),
                         [](const auto& param_info) {
                           return "Config" + std::to_string(param_info.param);
                         });

TEST(Blob, ThresholdStepGranularityTradesRepeatability) {
  const auto img = synthetic_image(200, 200, {{100, 100, 9}});
  an::BlobParams coarse = default_params();
  coarse.threshold_step = 60;  // few slices
  an::BlobParams fine = default_params();
  fine.threshold_step = 5;  // many slices
  const auto cb = an::detect_blobs(img, 200, 200, coarse);
  const auto fb = an::detect_blobs(img, 200, 200, fine);
  // Both find the blob; the fine sweep averages over more slices.
  ASSERT_EQ(cb.size(), 1u);
  ASSERT_EQ(fb.size(), 1u);
  EXPECT_NEAR(cb[0].center.x, fb[0].center.x, 3.0);
}

TEST(Blob, MaxAreaFilterDropsGiants) {
  const auto img = synthetic_image(200, 200, {{100, 100, 25}, {30, 30, 4}});
  auto p = default_params();
  p.max_area = 400;  // the sigma-25 blob covers thousands of px
  const auto blobs = an::detect_blobs(img, 200, 200, p);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].center.x, 30.0, 3.0);
}

TEST(Blob, AnnotationDrawsRingAroundBlob) {
  std::vector<std::uint8_t> img(100 * 100, 0);
  an::Blob b;
  b.center = {50, 50};
  b.diameter = 20;
  an::annotate_blobs(img, 100, 100, {b}, 255, 2.0);
  // Pixels on the ring (radius 12) are lit; center and far corner are not.
  EXPECT_EQ(img[50 * 100 + 62], 255);  // (62, 50): center + r on the x axis
  EXPECT_EQ(img[50 * 100 + 50], 0);
  EXPECT_EQ(img[0], 0);
  // Ring partially off-image must not crash or wrap.
  an::Blob edge;
  edge.center = {1, 1};
  edge.diameter = 30;
  an::annotate_blobs(img, 100, 100, {edge});
  EXPECT_EQ(img.size(), 100u * 100u);
}
