#pragma once
// ZFP-style fixed-accuracy codec (Lindstrom, TVCG 2014 lineage),
// re-implemented from scratch for 1-D value streams.
//
// Values are processed in blocks of 64. Each block is aligned to a common
// exponent, scaled to 60-bit fixed point, and coded one of two ways: through
// an integer Haar lifting transform (coarse-to-fine coefficient layout), or
// with no transform. Either way the coefficients are split into sign and
// magnitude and entropy-coded MSB-plane-first with zfp's prefix group-testing
// scheme; a coefficient's sign follows its first 1 bit. Planes below a
// block's lowest plane p are dropped, each magnitude rounded to the nearest
// multiple of 2^p. The encoder plans both codings and keeps whichever costs
// fewer payload bits, counted without coding either. Lifting pays on smooth
// input; Canopus deltas, already multilevel coefficients (which MGARD
// quantizes directly), mostly code smaller untransformed.
//
// Each candidate's p is checked, not derived: the encoder rebuilds the block
// exactly as the decoder will, starting one plane above the error bound's own
// and stepping down, and keeps the first p at which every value decodes
// within the bound (skipping a plane whose rounding would carry a magnitude
// to 2^61). A block whose values all lie within the bound of zero is stored
// all zero; one that no candidate brings within the bound at plane 0 (its
// fixed-point quantum is coarser than the bound), or that holds a non-finite
// value, is stored raw. A block's metadata starts with its mode byte: 0 all
// zero, 1 raw, 2 + p lifted, 63 + p untransformed (p <= 60; 124 and up are
// corrupt), a coded block's followed by its exponent (int16) and top plane
// (int8). The decoder needs no error bound.
//
// An error bound <= 0 keeps every plane: reconstruction is then exact up to
// the fixed-point quantization (relative ~1e-17), but not bit-identical, so
// the codec always reports itself lossy.

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

/// One candidate coding of a block as zfp_encode plans it: whether a plane
/// holds the bound, and the payload bits it counted and that coding writes.
struct ZfpCandidateBits {
  bool held = false;
  std::size_t counted = 0;
  std::size_t emitted = 0;
};

/// Both candidates of one block of at most kZfpBlock values, [0] lifted and
/// [1] untransformed, so tests can check the encoder's count (a block stored
/// all zero or raw unplanned reads unheld twice).
std::array<ZfpCandidateBits, 2> zfp_candidate_bits(std::span<const double> block,
                                                   double error_bound);
}  // namespace detail

}  // namespace canopus::compress
