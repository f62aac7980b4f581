// Live-heap high-water of the write path's set-up, counted by a replacement
// operator new. The replacement counts every allocation of the process, so
// these tests live in an executable of their own and measure one call at a
// time on the calling thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <new>

#include "mesh/decimate.hpp"
#include "sim/datasets.hpp"

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
