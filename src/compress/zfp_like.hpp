#pragma once
// ZFP-style fixed-accuracy codec (Lindstrom, TVCG 2014 lineage),
// re-implemented from scratch for 1-D value streams.
//
// Values are processed in blocks of 64, each coded whichever of two ways the
// encoder counts as fewer bits, without coding either:
//   - lifted: aligned to a common exponent, scaled to 60-bit fixed point and
//     run through an integer Haar lifting (coarse-to-fine coefficients),
//     then coded MSB-plane-first with zfp's prefix group tests, a sign after
//     its coefficient's first 1 bit. Planes below the block's lowest plane p
//     are dropped, magnitudes rounded to multiples of 2^p. Its exponent and
//     top plane (3 metadata bytes) count against it.
//   - quantized: each value v becomes q = round(v / 2e) for the bound e, and
//     the zigzagged indices are Rice-coded (quotient by 2^k in unary, then k
//     low bits) with the k that minimizes the block's bits: MGARD's uniform
//     quantization of multilevel coefficients (arXiv 2105.12764), which
//     Canopus deltas are. Smooth input keeps the lifting.
// Both are checked on the decoder's own reconstruction: p is the first plane,
// from one above the bound's own down, at which every value decodes within
// the bound (skipping a plane whose rounding carries a magnitude to 2^61);
// a block is quantized only if every |q| <= 2^52 and every q * 2e lies within
// the bound. A block within the bound of zero is stored all zero; one that
// neither holds (its fixed-point quantum coarser than the bound, its indices
// out of range) or that holds a non-finite value is stored raw. A bound <= 0
// codes lifted only, keeping every plane: exact up to the fixed-point
// quantization (relative ~1e-17), but not bit-identical, so the codec always
// reports itself lossy.
//
// Stream: varint value count, the bound as a double (the decoder's step is
// exactly 2 * bound), block metadata, bit payload. A block's metadata starts
// with its mode byte: 0 all zero, 1 raw (values follow), 2 + p lifted (p <=
// 60; exponent int16 and top plane int8 follow), 124 + k quantized (k <=
// 53). Modes 63..123 held a retired untransformed layout; they, and anything
// else the encoder never writes, throw `zfp stream corrupt`.

#include <array>
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
/// place; the inverse undoes the forward exactly. Exposed so tests can
/// check that round trip and the plane choice against a reference encoder.
void forward_transform64(std::int64_t* a);
void inverse_transform64(std::int64_t* a);

/// One candidate coding of a block as zfp_encode plans it: whether it holds
/// the bound, and the payload bits it counted and that coding writes.
struct ZfpCandidateBits {
  bool held = false;
  std::size_t counted = 0;
  std::size_t emitted = 0;
};

/// Both candidates of one block of at most kZfpBlock values, [0] lifted and
/// [1] quantized and Rice-coded, so tests can check the encoder's count (a
/// block stored all zero or raw unplanned reads unheld twice).
std::array<ZfpCandidateBits, 2> zfp_candidate_bits(std::span<const double> block,
                                                   double error_bound);
}  // namespace detail

}  // namespace canopus::compress
