// Live heap of the write path's set-up and of a loaded geometry cache,
// counted by a replacement operator new. The replacement counts every
// allocation of the process, so these tests live in an executable of their
// own and measure one call at a time on the calling thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <new>
#include <optional>

#include "core/geometry_cache.hpp"
#include "core/progressive_reader.hpp"
#include "core/refactorer.hpp"
#include "mesh/cascade.hpp"
#include "mesh/decimate.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

// Each block carries its size in a header that keeps the payload aligned
// for any fundamental type.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n + kHeader);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(p) = n;
  const std::size_t live = g_live.fetch_add(n) + n;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(p) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(base));
  std::free(base);
}

/// The most bytes `f` held live at once beyond what was live when it began.
template <class F>
std::size_t peak_live_bytes(F&& f) {
  const std::size_t base = g_live.load();
  g_peak.store(base);
  f();
  return g_peak.load() - base;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace cc = canopus::core;
namespace cm = canopus::mesh;

TEST(MemoryGuard, CountingAllocatorSeesAVector) {
  const std::size_t peak = peak_live_bytes([] {
    std::vector<double> v(1000);
    v[999] = 1.0;
  });
  EXPECT_EQ(peak, 1000 * sizeof(double));
}

// The first pass of the benchmark's cascade, on its full-size XGC plane
// (~20.5k vertices): everything the decimator allocates, its output level
// included, stays under 6 MiB at its high-water.
TEST(MemoryGuard, FirstDecimationPassOfABenchmarkPlane) {
  canopus::sim::XgcOptions xopt;
  xopt.seed = 3000;
  const auto ds = canopus::sim::make_xgc_dataset(xopt);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  std::size_t collapses = 0;
  const std::size_t peak = peak_live_bytes([&] {
    collapses = cm::decimate(ds.mesh, ds.values, opt).collapses;
  });
  std::cout << "pass 0 over " << ds.mesh.vertex_count() << " vertices: "
            << collapses << " collapses, peak live heap " << peak << " bytes\n";
  EXPECT_GE(collapses, ds.mesh.vertex_count() / 2);
  EXPECT_LE(peak, std::size_t{6} << 20);
}

// The whole 4-level cascade of the same plane: pass 0's high-water plus the
// level-0 field the cascade copies. Level 0's mesh is the caller's, shared.
TEST(MemoryGuard, CascadeOfABenchmarkPlane) {
  canopus::sim::XgcOptions xopt;
  xopt.seed = 3000;
  const auto ds = canopus::sim::make_xgc_dataset(xopt);
  cm::CascadeOptions opt;
  opt.levels = 4;
  std::size_t levels = 0;
  const std::size_t peak = peak_live_bytes([&] {
    const auto cascade = cm::build_cascade(ds.mesh, ds.values, opt);
    levels = cascade.level_count();
    EXPECT_EQ(cascade.levels[0].mesh.vertices().data(), ds.mesh.vertices().data());
  });
  std::cout << "4-level cascade: peak live heap " << peak << " bytes\n";
  EXPECT_EQ(levels, 4u);
  EXPECT_LE(peak, std::size_t{6} << 20);
}

namespace {

/// The benchmark's container of the seed-3000 plane (4 levels, zfp at 1e-4,
/// 8 delta chunks) as "xgc.bp", variable "dpot".
struct BenchmarkContainer {
  canopus::storage::StorageHierarchy tiers{
      {canopus::storage::tmpfs_spec(64 << 20),
       canopus::storage::lustre_spec(1 << 30)}};

  BenchmarkContainer() {
    canopus::sim::XgcOptions xopt;
    xopt.seed = 3000;
    const auto ds = canopus::sim::make_xgc_dataset(xopt);
    cc::RefactorConfig config;
    config.levels = 4;
    config.codec = "zfp";
    config.error_bound = 1e-4;
    config.delta_chunks = 8;
    cc::refactor_and_write(tiers, "xgc.bp", "dpot", ds.mesh, ds.values, config);
  }
};

}  // namespace

// A loaded cache holds every level's positions, the triangles of levels 1-3,
// the derived mappings and level 0's connectivity sections, not its
// triangles. The Morton orders belong to the process-wide memo, warmed by a
// first load. Once mesh(0) decodes the triangles, the sections go: the cache
// then holds about what a cache that kept level 0's triangles held
// (1,685,252 bytes). The load's high-water mark is the kMesh block's decode,
// with level 0's triangles live; deriving the mappings afterwards, one
// PointLocator per coarse level, must not raise it (2,590,206 bytes when
// the mappings were read from the container).
TEST(MemoryGuard, GeometryCacheOfABenchmarkPlane) {
  BenchmarkContainer container;
  auto& tiers = container.tiers;
  cc::GeometryCache::load(tiers, "xgc.bp", "dpot");  // warms the order memo
  std::optional<cc::GeometryCache> cache;
  const std::size_t before = g_live.load();
  const std::size_t peak = peak_live_bytes(
      [&] { cache.emplace(cc::GeometryCache::load(tiers, "xgc.bp", "dpot")); });
  const std::size_t held = g_live.load() - before;
  EXPECT_GT(cache->mesh(0).triangle_count(), 0u);
  const std::size_t decoded = g_live.load() - before;
  std::cout << "geometry cache of " << cache->vertex_count(0)
            << " vertices: load peak " << peak << " bytes, " << held
            << " bytes live, " << decoded << " once mesh(0) is decoded\n";
  EXPECT_LE(peak, std::size_t{2'720'000});
  EXPECT_LE(held, std::size_t{1'350'000});
  EXPECT_LE(decoded, std::size_t{1'690'000});
}

// Restoration reads level 0's positions, never its triangles: a full refine
// through the cache decodes none, and the first mesh(0) decodes them once.
TEST(MemoryGuard, FullRefineDecodesNoLevelZeroTriangles) {
  BenchmarkContainer container;
  auto& tiers = container.tiers;
  const auto cache = cc::GeometryCache::load(tiers, "xgc.bp", "dpot");
  canopus::obs::ObservabilityOptions options;
  options.enabled = true;
  canopus::obs::install(options);
  auto& decodes = canopus::obs::MetricsRegistry::global().counter(
      "geometry.level0_decodes");
  {
    cc::ProgressiveReader reader(tiers, "xgc.bp", "dpot", &cache);
    reader.refine_to(0);
    EXPECT_TRUE(reader.at_full_accuracy());
    EXPECT_EQ(decodes.value(), 0u);
    EXPECT_EQ(reader.current_mesh().vertex_count(), cache.vertex_count(0));
  }
  EXPECT_EQ(decodes.value(), 1u);
  EXPECT_EQ(cache.mesh(0).vertices().data(), cache.vertices(0).data());
  EXPECT_EQ(decodes.value(), 1u);
  canopus::obs::set_enabled(false);
}
