#pragma once
// Runtime SIMD dispatch for the hot kernels (sz-like code reconstruction,
// CRC-32 slicing).
//
// Policy: a kernel gets a vector variant only when the lanes compute the
// exact same IEEE/integer operations in the same order as the scalar loop, so
// the output is bitwise-identical on every path (parallel_test and
// compress_test enforce this). Kernels whose scalar semantics have no exact
// lane equivalent (llround quantization, loop-carried prediction) stay
// scalar on purpose.
//
// Mechanics: the baseline build carries no -mavx2 — vector bodies are
// compiled per-function with __attribute__((target("avx2"))) and selected at
// runtime via __builtin_cpu_supports, so one binary runs (and can A/B
// scalar-vs-vector in-process) on any x86-64. On aarch64 the NEON baseline is
// always available; everything else falls back to the scalar loops. The
// whole mechanism sits behind a process-wide switch so tests and the
// micro_kernels bench can force the scalar path (CANOPUS_SIMD=0 or
// set_enabled(false)) and compare bit-for-bit in one process.

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CANOPUS_SIMD_X86 1
#else
#define CANOPUS_SIMD_X86 0
#endif
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define CANOPUS_SIMD_NEON 1
#else
#define CANOPUS_SIMD_NEON 0
#endif

namespace canopus::util::simd {

/// Widest instruction set the vector kernels can use on this machine.
enum class Isa : unsigned char {
  kScalar = 0,  // no vector variant compiled in (or none supported)
  kSse2 = 1,    // x86-64 baseline (128-bit lanes)
  kAvx2 = 2,    // 256-bit integer + double lanes, gathers
  kNeon = 3,    // aarch64 baseline (128-bit lanes)
};

inline const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "scalar";
}

namespace detail {
inline Isa detect() {
#if CANOPUS_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kSse2;
#elif CANOPUS_SIMD_NEON
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("CANOPUS_SIMD");
    return !(env != nullptr && std::strcmp(env, "0") == 0);
  }();
  return flag;
}
}  // namespace detail

/// The ISA the hardware offers, independent of the runtime switch.
inline Isa hardware_isa() {
  static const Isa isa = detail::detect();
  return isa;
}

/// Process-wide switch: kernels take their vector path only while this is
/// true (default: on, unless the environment sets CANOPUS_SIMD=0). Flipping
/// it never changes results — both paths are bitwise-identical — only which
/// code computes them, which is exactly what the determinism tests and the
/// scalar-vs-vector bench comparisons exercise.
inline bool enabled() { return detail::enabled_flag().load(std::memory_order_relaxed); }
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// ISA the kernels will actually dispatch to right now.
inline Isa active_isa() { return enabled() ? hardware_isa() : Isa::kScalar; }

/// True when a dispatching kernel should take its AVX2 body.
inline bool use_avx2() { return active_isa() == Isa::kAvx2; }
/// True when a dispatching kernel should take its NEON body.
inline bool use_neon() { return active_isa() == Isa::kNeon; }

/// RAII force-scalar scope for tests: disables vector dispatch on
/// construction, restores the previous state on destruction.
class ScopedForceScalar {
 public:
  ScopedForceScalar() : was_(enabled()) { set_enabled(false); }
  ~ScopedForceScalar() { set_enabled(was_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool was_;
};

}  // namespace canopus::util::simd
