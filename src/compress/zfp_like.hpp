#pragma once
// ZFP-style fixed-accuracy transform codec (Lindstrom, TVCG 2014 lineage),
// re-implemented from scratch for 1-D value streams.
//
// Values are processed in blocks of 64. Each block is aligned to a common
// exponent and scaled to 60-bit fixed point, decorrelated with an integer
// Haar lifting transform (coarse-to-fine coefficient layout), split into
// sign and magnitude, and entropy-coded MSB-plane-first with zfp's prefix
// group-testing scheme; a coefficient's sign follows its first 1 bit.
// Bit planes below a block's stored lowest plane are truncated — that single
// knob trades size for error, and smoother input (e.g. Canopus deltas)
// concentrates energy in fewer coefficients, which is exactly the
// pre-conditioning effect Fig. 5 of the paper measures.
//
// The lowest plane is chosen per block by checking, not by an a-priori
// argument: the encoder rebuilds the block exactly as the decoder will (same
// inverse transform, same scaling) keeping planes down to p, starting one
// plane above the error bound's own and stepping down, and stores the first
// p at which every value decodes within the bound in the block's mode byte
// of metadata. A block that no plane down to 0 brings within the bound (its
// fixed-point quantum is coarser than the bound), or that holds a non-finite
// value, is stored raw. The decoder needs no error bound.
//
// An error bound <= 0 keeps every plane: reconstruction is then exact up to
// the fixed-point quantization (relative ~1e-17), but not bit-identical, so
// the codec always reports itself lossy.

#include <span>
#include <vector>

#include "util/byte_buffer.hpp"

namespace canopus::compress {

util::Bytes zfp_encode(std::span<const double> values, double error_bound);
std::vector<double> zfp_decode(util::BytesView bytes);

namespace detail {
/// The block size of the Haar lifting transform below.
inline constexpr std::size_t kZfpBlock = 64;

/// Forward/inverse integer Haar lifting over one 64-coefficient block, in
/// place. Dispatches to the AVX2 lane variant when util::simd allows it;
/// both paths are exactly invertible and bitwise-identical. Exposed so
/// micro_kernels can time the transform alone (inside zfp_encode it is
/// diluted by the bit-plane coder) and compress_test can pin scalar == simd.
void forward_transform64(std::int64_t* a);
void inverse_transform64(std::int64_t* a);
}  // namespace detail

}  // namespace canopus::compress
