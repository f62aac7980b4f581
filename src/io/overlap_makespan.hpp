#pragma once
// The one rule that hides I/O latency on the simulated clock: a level's
// delta-chunk reads, each charged its full simulated cost, overlapped on
// `depth` lanes.

#include <cstdint>
#include <vector>

namespace canopus::io {

/// Simulated wall-clock seconds of executing ops with the given sim costs on
/// `depth` overlapped lanes, in submission order (greedy earliest-free-lane
/// list schedule). Deterministic; depth <= 1 reduces to the plain ordered
/// sum. Never exceeds that sum, never falls below the largest cost.
double overlap_makespan(const std::vector<double>& costs, std::uint32_t depth);

}  // namespace canopus::io
