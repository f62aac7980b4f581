// Tests for the overlap makespan (src/io), the one rule that hides I/O
// latency on the simulated clock: depth <= 1 is the ordered per-op sum bit
// for bit, and deeper overlap never charges more than that sum nor less than
// the largest op or perfect packing.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "io/overlap_makespan.hpp"
#include "util/rng.hpp"

namespace cio = canopus::io;
namespace cu = canopus::util;

// --------------------------------------------------------------- makespan --

TEST(OverlapMakespan, DepthOneIsTheOrderedSum) {
  const std::vector<double> costs{0.1, 0.25, 0.3, 0.01};
  // Bit-identical to the historical left-to-right fold, not merely close:
  // async-off accounting must not move by an ulp.
  double sum = 0.0;
  for (double c : costs) sum += c;
  EXPECT_EQ(cio::overlap_makespan(costs, 1), sum);
  EXPECT_EQ(cio::overlap_makespan(costs, 0), sum);
  EXPECT_EQ(cio::overlap_makespan({}, 1), 0.0);
  EXPECT_EQ(cio::overlap_makespan({}, 8), 0.0);
}

TEST(OverlapMakespan, OverlapIsBoundedByMaxAndSum) {
  cu::Rng rng(11);
  std::vector<double> costs(40);
  for (auto& c : costs) c = rng.uniform(1e-4, 1e-2);
  const double sum = std::accumulate(costs.begin(), costs.end(), 0.0);
  const double maxc = *std::max_element(costs.begin(), costs.end());
  double prev = sum;
  for (std::uint32_t depth : {2u, 3u, 8u, 64u}) {
    const double m = cio::overlap_makespan(costs, depth);
    EXPECT_GE(m, maxc);            // the longest op can never be hidden
    EXPECT_GE(m, sum / depth);     // depth lanes can't beat perfect packing
    EXPECT_LE(m, sum + 1e-12);     // overlap never makes things slower
    EXPECT_LE(m, prev + 1e-12);    // deeper rings never hurt
    prev = m;
  }
  // With more lanes than ops, every op runs concurrently from t=0.
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 64), maxc);
}

TEST(OverlapMakespan, EqualCostsPackPerfectly) {
  const std::vector<double> costs(6, 0.5);
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 2), 1.5);
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 3), 1.0);
  EXPECT_DOUBLE_EQ(cio::overlap_makespan(costs, 6), 0.5);
}
