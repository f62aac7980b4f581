#pragma once
// A ProgressiveReader's io depth, split into its own header so the config
// loader and the Pipeline facade can carry it without pulling in the reader.

#include <cstdint>

namespace canopus::io {

/// Overlap depth of a reader's delta fetches. Reads are always issued one at
/// a time, in chunk order; depth only changes how a level's reads are
/// charged. Depth <= 1 charges their plain sum (the blocking reader); depth
/// > 1 (config `<io depth=...>` or the benches' --io-depth) charges their
/// overlap_makespan on `depth` lanes (io/overlap_makespan.hpp).
struct IoConfig {
  std::uint32_t depth = 1;

  bool enabled() const { return depth > 1; }
};

}  // namespace canopus::io
