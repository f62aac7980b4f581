#include "io/overlap_makespan.hpp"

#include <algorithm>

namespace canopus::io {

double overlap_makespan(const std::vector<double>& costs, std::uint32_t depth) {
  // One lane (depth <= 1) adds the non-negative costs in order from 0.0: the
  // plain ordered sum, bit for bit.
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min<std::size_t>(depth, costs.size()));
  std::vector<double> lane(lanes, 0.0);
  double makespan = 0.0;
  for (const double c : costs) {
    // Greedy list schedule in submission order; min_element's first-of-ties
    // rule keeps the schedule deterministic.
    auto slot = std::min_element(lane.begin(), lane.end());
    *slot += c;
    makespan = std::max(makespan, *slot);
  }
  return makespan;
}

}  // namespace canopus::io
