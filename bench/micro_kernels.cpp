// google-benchmark microbenchmarks of the kernels underneath every figure:
// codec encode/decode throughput, edge-collapse decimation, point location,
// delta calculation/restoration, and blob detection.
//
// `--compare` switches to the scalar-vs-SIMD harness instead (no
// google-benchmark): each vectorized hot kernel (crc32 slice-by-8, zfp
// forward/inverse block transform, sz dequantization) runs both with
// util::simd forced scalar and with the runtime dispatch active, verifies
// the outputs are bitwise-identical, and reports best-of-N throughput. `--json` emits the table as JSON; `--min-speedup=R`
// fails (nonzero exit) if any vectorized kernel falls below R, and — when a
// vector ISA is active — at least two kernels must clear 2x.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "compress/codec.hpp"
#include "compress/sz_like.hpp"
#include "compress/zfp_like.hpp"
#include "core/delta.hpp"
#include "mesh/cascade.hpp"
#include "mesh/decimate.hpp"
#include "mesh/generators.hpp"
#include "mesh/point_locator.hpp"
#include "grid/structured.hpp"
#include "sim/datasets.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace canopus;

namespace {

std::vector<double> bench_signal(std::size_t n) {
  std::vector<double> xs(n);
  util::Rng rng(12);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = std::sin(static_cast<double>(i) * 0.003) * 40.0 +
            rng.normal(0.0, 0.5);
  }
  return xs;
}

const sim::Dataset& xgc_small() {
  static const sim::Dataset ds = [] {
    sim::XgcOptions opt;
    opt.rings = 40;
    opt.sectors = 200;
    return sim::make_xgc_dataset(opt);
  }();
  return ds;
}

}  // namespace

static void BM_CodecEncode(benchmark::State& state, const std::string& name) {
  const auto codec = compress::make_codec(name);
  const auto xs = bench_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->encode(xs, 1e-4));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xs.size() * sizeof(double)));
}

static void BM_CodecDecode(benchmark::State& state, const std::string& name) {
  const auto codec = compress::make_codec(name);
  const auto xs = bench_signal(static_cast<std::size_t>(state.range(0)));
  const auto enc = codec->encode(xs, 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->decode(enc));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xs.size() * sizeof(double)));
}

BENCHMARK_CAPTURE(BM_CodecEncode, zfp, std::string("zfp"))->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CodecEncode, sz, std::string("sz"))->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CodecEncode, fpc, std::string("fpc"))->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CodecEncode, lzss, std::string("lzss"))->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CodecDecode, zfp, std::string("zfp"))->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CodecDecode, sz, std::string("sz"))->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_CodecDecode, fpc, std::string("fpc"))->Arg(1 << 16);

static void BM_Decimate2x(benchmark::State& state) {
  const auto& ds = xgc_small();
  mesh::DecimateOptions opt;
  opt.ratio = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::decimate(ds.mesh, ds.values, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.mesh.vertex_count()));
}
BENCHMARK(BM_Decimate2x)->Unit(benchmark::kMillisecond);

// What one Pipeline::write pays for decimation: the end-to-end benchmark's
// timestep (a shuffled 20,800-vertex XGC plane, seed 3000) refactored into
// 4 levels at step 2. Each iteration starts from a fresh mesh copy, so no
// state derived from the mesh carries over between iterations.
static void BM_BuildCascade(benchmark::State& state) {
  static const sim::Dataset ds = [] {
    sim::XgcOptions opt;
    opt.seed = 3000;
    return sim::make_xgc_dataset(opt);
  }();
  mesh::CascadeOptions opt;
  opt.levels = 4;
  opt.step = 2.0;
  for (auto _ : state) {
    state.PauseTiming();
    const mesh::TriMesh fresh = ds.mesh;
    state.ResumeTiming();
    benchmark::DoNotOptimize(mesh::build_cascade(fresh, ds.values, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.mesh.vertex_count()));
}
BENCHMARK(BM_BuildCascade)->Unit(benchmark::kMillisecond);

static void BM_PointLocation(benchmark::State& state) {
  const auto& ds = xgc_small();
  const mesh::PointLocator locator(ds.mesh);
  util::Rng rng(3);
  // Sample inside the annulus body so we measure the grid path, not the
  // outside-point fallback.
  for (auto _ : state) {
    const double r = rng.uniform(0.35, 0.95);
    const double theta = rng.uniform(0.0, 6.28);
    benchmark::DoNotOptimize(
        locator.try_locate({r * std::cos(theta), r * std::sin(theta)}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PointLocation);

static void BM_BuildMapping(benchmark::State& state) {
  // XGC L0 -> L1 of the default cascade: every L0 vertex located on L1,
  // including the rim vertices decimation leaves outside L1 that take the
  // nearest-triangle fallback.
  static const mesh::Cascade cascade = [] {
    const auto ds = sim::make_xgc_dataset();
    return mesh::build_cascade(ds.mesh, ds.values, mesh::CascadeOptions{});
  }();
  const auto& fine = cascade.levels[0].mesh;
  const auto& coarse = cascade.levels[1].mesh;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_mapping(fine, coarse));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fine.vertex_count()));
}
BENCHMARK(BM_BuildMapping)->Unit(benchmark::kMillisecond);

static void BM_DeltaAndRestore(benchmark::State& state) {
  const auto& ds = xgc_small();
  mesh::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = mesh::decimate(ds.mesh, ds.values, opt);
  const auto mapping = core::build_mapping(ds.mesh, coarse.mesh);
  for (auto _ : state) {
    const auto delta =
        core::compute_delta(coarse.mesh, coarse.values, ds.values, mapping,
                            core::EstimateMode::kUniformThirds);
    benchmark::DoNotOptimize(
        core::restore_level(coarse.mesh, coarse.values, delta, mapping,
                            core::EstimateMode::kUniformThirds));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.mesh.vertex_count()));
}
BENCHMARK(BM_DeltaAndRestore)->Unit(benchmark::kMillisecond);

static void BM_BlobDetection(benchmark::State& state) {
  const auto& ds = xgc_small();
  const auto bounds = ds.mesh.bounds();
  const auto raster = analytics::rasterize(ds.mesh, ds.values, 300, 300, bounds);
  const auto [lo, hi] =
      std::minmax_element(ds.values.begin(), ds.values.end());
  const auto img = analytics::to_gray8(raster, *lo, *hi);
  analytics::BlobParams params;
  params.min_threshold = 10;
  params.max_threshold = 200;
  params.min_area = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytics::detect_blobs(img, 300, 300, params));
  }
}
BENCHMARK(BM_BlobDetection)->Unit(benchmark::kMillisecond);

static void BM_Rasterize(benchmark::State& state) {
  const auto& ds = xgc_small();
  const auto bounds = ds.mesh.bounds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analytics::rasterize(ds.mesh, ds.values, 300, 300, bounds));
  }
}
BENCHMARK(BM_Rasterize)->Unit(benchmark::kMillisecond);

static void BM_SpatialOrder(benchmark::State& state) {
  const auto& ds = xgc_small();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::spatial_order(ds.mesh));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.mesh.vertex_count()));
}
BENCHMARK(BM_SpatialOrder)->Unit(benchmark::kMillisecond);

static void BM_GridCoarsenDelta(benchmark::State& state) {
  grid::GridShape shape;
  shape.nx = 512;
  shape.ny = 512;
  grid::GridField f(shape.point_count());
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = std::sin(static_cast<double>(i) * 1e-3);
  }
  for (auto _ : state) {
    const auto coarse = grid::coarsen(shape, f);
    benchmark::DoNotOptimize(
        grid::compute_grid_delta(shape, f, shape.coarsened(), coarse));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.point_count()));
}
BENCHMARK(BM_GridCoarsenDelta)->Unit(benchmark::kMillisecond);

namespace {

/// One scalar-vs-SIMD comparison row. `bytes` is the data volume one run of
/// `fn` touches; throughput = bytes / best-of-N seconds.
struct CompareResult {
  std::string op;
  std::size_t bytes = 0;
  double scalar_bps = 0.0;
  double simd_bps = 0.0;
  bool identical = false;
  double speedup() const {
    return scalar_bps > 0.0 ? simd_bps / scalar_bps : 0.0;
  }
};

template <typename F>
double timed_seconds(F&& fn) {
  util::WallTimer t;
  fn();
  return t.seconds();
}

/// Runs `fn` (which overwrites an output buffer) under both dispatch states,
/// checks the outputs bitwise via `digest` (raw output bytes), then times.
/// Scalar and SIMD reps are interleaved so a load spike on a shared host
/// hits both paths equally — timing them in two separate phases makes the
/// speedup ratio swing wildly when the machine slows mid-measurement.
template <typename Fn, typename Digest>
CompareResult compare_kernel(const std::string& op, std::size_t bytes, Fn&& fn,
                             Digest&& digest, int reps = 5) {
  CompareResult r;
  r.op = op;
  r.bytes = bytes;
  std::vector<std::uint8_t> scalar_digest, simd_digest;
  {
    util::simd::ScopedForceScalar scalar;
    fn();
    scalar_digest = digest();
  }
  fn();
  simd_digest = digest();
  r.identical = scalar_digest == simd_digest;

  double best_scalar = 1e30, best_simd = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    {
      util::simd::ScopedForceScalar scalar;
      best_scalar = std::min(best_scalar, timed_seconds(fn));
    }
    best_simd = std::min(best_simd, timed_seconds(fn));
  }
  r.scalar_bps = static_cast<double>(bytes) / best_scalar;
  r.simd_bps = static_cast<double>(bytes) / best_simd;
  return r;
}

std::vector<std::uint8_t> bytes_of(const void* p, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::memcpy(out.data(), p, n);
  return out;
}

int run_compare(bool json, double min_speedup) {
  util::Rng rng(42);
  std::vector<CompareResult> rows;

  {  // CRC-32: bytewise table walk vs slice-by-8.
    std::vector<std::uint8_t> buf(16u << 20);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    std::uint32_t crc = 0;
    auto fn = [&] {
      util::Crc32 c;
      c.update(buf.data(), buf.size());
      crc = c.value();
    };
    rows.push_back(compare_kernel("crc32", buf.size(), fn, [&] {
      return bytes_of(&crc, sizeof(crc));
    }));
  }

  // The transform/dequant kernels use L2-resident working sets with an inner
  // repeat loop: the compare measures the kernels themselves, not DRAM
  // bandwidth (which caps both paths at the same number).
  {  // zfp-like forward Haar lifting over 64-sample blocks.
    const std::size_t n = (1u << 15);  // 512 blocks, 256 KiB
    const int iters = 32;
    std::vector<std::int64_t> base(n), work(n);
    for (auto& v : base) {
      v = static_cast<std::int64_t>(rng.next_u64() >> 20) - (1ll << 43);
    }
    auto fwd = [&] {
      for (int it = 0; it < iters; ++it) {
        work = base;
        for (std::size_t b = 0; b < n; b += compress::detail::kZfpBlock) {
          compress::detail::forward_transform64(work.data() + b);
        }
      }
    };
    rows.push_back(compare_kernel("zfp_fwd_transform",
                                  iters * n * sizeof(std::int64_t), fwd, [&] {
                                    return bytes_of(work.data(),
                                                    n * sizeof(std::int64_t));
                                  }, 15));
    // Inverse over the transformed blocks (round-trips back to `base`).
    const std::vector<std::int64_t> coeffs = [&] {
      util::simd::ScopedForceScalar scalar;
      fwd();
      return work;
    }();
    auto inv = [&] {
      for (int it = 0; it < iters; ++it) {
        work = coeffs;
        for (std::size_t b = 0; b < n; b += compress::detail::kZfpBlock) {
          compress::detail::inverse_transform64(work.data() + b);
        }
      }
    };
    rows.push_back(compare_kernel("zfp_inv_transform",
                                  iters * n * sizeof(std::int64_t), inv, [&] {
                                    return bytes_of(work.data(),
                                                    n * sizeof(std::int64_t));
                                  }, 15));
  }

  {  // sz-like dequantization: zigzag decode + int->double scale.
    const std::size_t n = (1u << 14);  // 256 KiB codes + out
    const int iters = 256;
    std::vector<std::uint64_t> codes(n);
    for (auto& c : codes) c = rng.next_u64() % (1u << 21);
    std::vector<double> out(n);
    auto fn = [&] {
      for (int it = 0; it < iters; ++it) {
        compress::detail::dequant_codes(codes.data(), n, 1e-4, out.data());
      }
    };
    rows.push_back(compare_kernel("sz_dequant", iters * n * sizeof(double), fn,
                                  [&] {
                                    return bytes_of(out.data(),
                                                    n * sizeof(double));
                                  }, 15));
  }

  const bool vector_isa =
      util::simd::hardware_isa() != util::simd::Isa::kScalar;
  bool all_identical = true;
  bool above_min = true;
  std::size_t two_x = 0;
  for (const auto& r : rows) {
    all_identical = all_identical && r.identical;
    above_min = above_min && r.speedup() >= min_speedup;
    if (r.speedup() >= 2.0) ++two_x;
  }
  // Without a vector ISA both runs execute the same scalar code; the gates
  // would only measure timer noise, so they pass vacuously.
  const bool pass = all_identical &&
                    (!vector_isa || (above_min && two_x >= 2));

  if (json) {
    std::cout << "{\n  \"isa\": \"" << util::simd::to_string(util::simd::active_isa())
              << "\",\n  \"min_speedup\": " << min_speedup
              << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::cout << "    {\"op\": \"" << r.op << "\", \"bytes\": " << r.bytes
                << ", \"scalar_bytes_per_s\": " << static_cast<std::uint64_t>(r.scalar_bps)
                << ", \"simd_bytes_per_s\": " << static_cast<std::uint64_t>(r.simd_bps)
                << ", \"speedup\": " << util::Table::num(r.speedup(), 2)
                << ", \"bitwise_identical\": " << (r.identical ? "true" : "false")
                << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    std::cout << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  } else {
    util::Table t({"op", "scalar MB/s", "simd MB/s", "speedup", "bitwise"});
    for (const auto& r : rows) {
      t.add_row({r.op, util::Table::num(r.scalar_bps / 1e6, 1),
                 util::Table::num(r.simd_bps / 1e6, 1),
                 util::Table::num(r.speedup(), 2) + "x",
                 r.identical ? "identical" : "DIFFERS"});
    }
    t.print(std::cout, "scalar vs SIMD kernels (isa " +
                           std::string(util::simd::to_string(
                               util::simd::active_isa())) +
                           ", best-of-N wall time)");
    if (!pass) {
      std::cout << "\nFAIL: " << (all_identical ? "" : "outputs differ; ")
                << (above_min ? "" : "a kernel fell below the speedup floor; ")
                << (two_x >= 2 || !vector_isa ? "" : "fewer than 2 kernels at >=2x")
                << "\n";
    }
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool compare = false;
  bool json = false;
  // The floor tolerates ~10% wall-clock jitter: near-parity kernels would
  // otherwise flake on shared hosts.
  double min_speedup = 0.9;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compare") compare = true;
    if (arg == "--json") json = true;
    if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::stod(arg.substr(std::strlen("--min-speedup=")));
    }
  }
  if (compare) return run_compare(json, min_speedup);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
