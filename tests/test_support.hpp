#pragma once
// Shared helpers for the randomized test suites, and the error bound a
// full refine holds.
//
// CANOPUS_TEST_SEED makes CI failures reproducible: every randomized sweep
// derives its per-case RNG seeds from this base (default 0, the historical
// value, so unset keeps the exact seeds the suites always ran). A red run
// prints the offending seed; replay it locally with
//
//   CANOPUS_TEST_SEED=<base> ctest --test-dir build -R <suite>
//
// ctest inherits the variable from the calling environment, so exporting it
// before `ctest` (as CI does) reaches every test process.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

namespace canopus::test {

/// Base seed for randomized sweeps: $CANOPUS_TEST_SEED, or 0 when unset.
inline std::uint64_t test_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("CANOPUS_TEST_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10)
                          : std::uint64_t{0};
  }();
  return seed;
}

/// The bound every level of a full refine holds against the input's level
/// `level`: the codec's `eb` on the product, plus the rounding of the
/// writer's one subtraction (delta = level - estimate) and the reader's one
/// addition (level = delta + estimate), each at most half an ulp of a value
/// below the level's largest magnitude plus the bound.
inline double level_bound(double eb, const std::vector<double>& level) {
  double largest = 0.0;
  for (const double v : level) largest = std::max(largest, std::abs(v));
  return eb + 2.0 * std::numeric_limits<double>::epsilon() * (largest + eb);
}

}  // namespace canopus::test
