#include "compress/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/assert.hpp"
#include "util/bitstream.hpp"
#include "util/simd.hpp"

#if CANOPUS_SIMD_X86
#include <immintrin.h>
#endif

namespace canopus::compress {

namespace {

constexpr std::size_t kBlock = detail::kZfpBlock;
// Fixed-point budget: |q| < 2^kQBits after scaling, leaving headroom for the
// transform's detail coefficients (|d| <= 2 * max|q|) inside int64.
constexpr int kQBits = 60;

// A block's first metadata byte: all zero, raw, or kCoded + p for a block
// coded down to bit plane p. Folding the stored plane into this byte keeps a
// coded block's metadata at 4 bytes (mode, emax, top plane).
enum BlockMode : std::uint8_t { kAllZero = 0, kRaw = 1, kCoded = 2 };

/// One forward lifting stage over a[0..len): pair (even, odd), emit sums then
/// details. Shared by the scalar path and the vector path's short tails.
void forward_stage_scalar(std::int64_t* a, std::int64_t* tmp, std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const std::int64_t x = a[2 * i];
    const std::int64_t y = a[2 * i + 1];
    const std::int64_t d = x - y;
    const std::int64_t s = y + (d >> 1);  // floor((x + y) / 2)
    tmp[i] = s;
    tmp[half + i] = d;
  }
  std::copy(tmp, tmp + len, a);
}

void inverse_stage_scalar(std::int64_t* a, std::int64_t* tmp, std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const std::int64_t s = a[i];
    const std::int64_t d = a[half + i];
    const std::int64_t y = s - (d >> 1);
    const std::int64_t x = y + d;
    tmp[2 * i] = x;
    tmp[2 * i + 1] = y;
  }
  std::copy(tmp, tmp + len, a);
}

void forward_transform_scalar(std::int64_t* a) {
  std::int64_t tmp[kBlock];
  for (std::size_t len = kBlock; len >= 2; len /= 2) {
    forward_stage_scalar(a, tmp, len);
  }
}

void inverse_transform_scalar(std::int64_t* a) {
  std::int64_t tmp[kBlock];
  for (std::size_t len = 2; len <= kBlock; len *= 2) {
    inverse_stage_scalar(a, tmp, len);
  }
}

#if CANOPUS_SIMD_X86
// AVX2 lifting: four (even, odd) pairs per step. All operations are 64-bit
// integer adds/subs plus an emulated arithmetic shift-right-by-one (AVX2 has
// no _mm256_srai_epi64), so every lane computes exactly the scalar
// expression and the transforms stay bitwise-identical and exactly
// invertible. Stages of length >= 8 vectorize; the len=4 and len=2 tails run
// the scalar pair loop.

__attribute__((target("avx2"))) inline __m256i sra1_epi64(__m256i v) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  return _mm256_or_si256(_mm256_srli_epi64(v, 1), _mm256_and_si256(v, sign));
}

__attribute__((target("avx2"))) void forward_transform_avx2(std::int64_t* a) {
  alignas(32) std::int64_t tmp[kBlock];
  for (std::size_t len = kBlock; len >= 8; len /= 2) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; i += 4) {
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * i));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * i + 4));
      // Deinterleave (a[2i], a[2i+1], ...) into even/odd quadruples.
      const __m256i ev = _mm256_permute4x64_epi64(
          _mm256_unpacklo_epi64(v0, v1), 0b11011000);
      const __m256i od = _mm256_permute4x64_epi64(
          _mm256_unpackhi_epi64(v0, v1), 0b11011000);
      const __m256i d = _mm256_sub_epi64(ev, od);
      const __m256i s = _mm256_add_epi64(od, sra1_epi64(d));
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + i), s);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + half + i), d);
    }
    std::copy(tmp, tmp + len, a);
  }
  for (std::size_t len = 4; len >= 2; len /= 2) {
    forward_stage_scalar(a, tmp, len);
  }
}

__attribute__((target("avx2"))) void inverse_transform_avx2(std::int64_t* a) {
  alignas(32) std::int64_t tmp[kBlock];
  for (std::size_t len = 2; len <= 4; len *= 2) {
    inverse_stage_scalar(a, tmp, len);
  }
  for (std::size_t len = 8; len <= kBlock; len *= 2) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; i += 4) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + half + i));
      const __m256i y = _mm256_sub_epi64(s, sra1_epi64(d));
      const __m256i x = _mm256_add_epi64(y, d);
      // Re-interleave (x0, y0, x1, y1, ...).
      const __m256i lo = _mm256_unpacklo_epi64(x, y);  // x0 y0 x2 y2
      const __m256i hi = _mm256_unpackhi_epi64(x, y);  // x1 y1 x3 y3
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 2 * i),
                         _mm256_permute2x128_si256(lo, hi, 0x20));
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 2 * i + 4),
                         _mm256_permute2x128_si256(lo, hi, 0x31));
    }
    std::copy(tmp, tmp + len, a);
  }
}
#endif  // CANOPUS_SIMD_X86

/// The decoder's reconstruction of a block's first `n` values from its signed
/// coefficients: inverse lifting, then back from fixed point. The encoder's
/// plane check runs it too, so the bound is checked on the doubles a reader
/// gets.
void rebuild(std::array<std::int64_t, kBlock>& q, int emax, std::size_t n,
             double* out) {
  detail::inverse_transform64(q.data());
  const double inv_scale = std::ldexp(1.0, emax - kQBits);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(q[i]) * inv_scale;
  }
}

/// The lowest bit plane to code so that every one of `vals` decodes within
/// `tolerance`, or -1 when even plane 0 does not (the block is then stored
/// raw). Planes are tried from one above the tolerance's own plane downward,
/// each by rebuilding the block as the decoder would from planes
/// top_plane..p; the first that holds the bound is kept. An error bound <= 0
/// keeps every plane unchecked.
int lowest_plane(std::span<const double> vals, double tolerance, int emax,
                 const std::array<std::int64_t, kBlock>& coeffs,
                 const std::array<std::uint64_t, kBlock>& u, int top_plane) {
  if (!(tolerance > 0.0)) return 0;
  // q = x * 2^(kQBits - emax); the tolerance in q units is tol_q.
  const double tol_q = std::ldexp(tolerance, kQBits - emax);
  const int start =
      tol_q >= 1.0 ? std::min(std::ilogb(tol_q), top_plane) + 1 : 0;
  std::array<std::int64_t, kBlock> q{};
  std::array<double, kBlock> rec{};
  for (int p = start; p >= 0; --p) {
    const std::uint64_t keep = ~std::uint64_t{0} << p;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const auto mag = static_cast<std::int64_t>(u[i] & keep);
      q[i] = coeffs[i] < 0 ? -mag : mag;
    }
    rebuild(q, emax, vals.size(), rec.data());
    bool holds = true;
    for (std::size_t i = 0; i < vals.size() && holds; ++i) {
      holds = std::abs(rec[i] - vals[i]) <= tolerance;
    }
    if (holds) return p;
  }
  return -1;
}

void put_raw(std::span<const double> vals, util::ByteWriter& out) {
  out.put(static_cast<std::uint8_t>(kRaw));
  out.put_bytes(vals.data(), vals.size() * sizeof(double));
}

void encode_block(std::span<const double> vals, double tolerance,
                  util::ByteWriter& out, util::BitWriter& bits) {
  CANOPUS_ASSERT(!vals.empty() && vals.size() <= kBlock);
  double maxabs = 0.0;
  bool finite = true;
  for (double v : vals) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
    maxabs = std::max(maxabs, std::abs(v));
  }
  if (!finite) return put_raw(vals, out);
  if (maxabs == 0.0) {
    out.put(static_cast<std::uint8_t>(kAllZero));
    return;
  }
  const int emax = std::ilogb(maxabs) + 1;  // maxabs < 2^emax
  const double scale = std::ldexp(1.0, kQBits - emax);
  // Below ~2^-964 the scale itself overflows: no fixed point to code in.
  if (!std::isfinite(scale)) return put_raw(vals, out);

  std::array<std::int64_t, kBlock> q{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    // Pad a short tail block by repeating the last value (keeps it smooth).
    const double v = i < vals.size() ? vals[i] : vals.back();
    q[i] = std::llround(v * scale);
  }
  detail::forward_transform64(q.data());

  // Sign-magnitude coding: bit planes carry |q|; the sign is emitted once,
  // right after a coefficient's first 1 bit. (Plain zigzag would put the sign
  // in the lowest bit, which plane truncation destroys.)
  std::array<std::uint64_t, kBlock> u{};
  std::uint64_t any = 0;
  for (std::size_t i = 0; i < kBlock; ++i) {
    u[i] = static_cast<std::uint64_t>(q[i] < 0 ? -q[i] : q[i]);
    any |= u[i];
  }
  const int top_plane = any ? 63 - std::countl_zero(any) : 0;
  const int pmin = lowest_plane(vals, tolerance, emax, q, u, top_plane);
  if (pmin < 0) return put_raw(vals, out);
  if (pmin > top_plane) {
    // No plane needed: the block decodes to zeros within the bound.
    out.put(static_cast<std::uint8_t>(kAllZero));
    return;
  }
  out.put(static_cast<std::uint8_t>(kCoded + pmin));
  out.put(static_cast<std::int16_t>(emax));
  out.put(static_cast<std::int8_t>(top_plane));

  std::array<bool, kBlock> sig{};
  auto emit_coeff_bit = [&](std::size_t i, int p) {
    const bool b = (u[i] >> p) & 1u;
    bits.write_bit(b);
    if (b && !sig[i]) {
      bits.write_bit(q[i] < 0);
      sig[i] = true;
    }
    return b;
  };

  // Embedded coding, MSB plane first. `prefix` is the number of leading
  // coefficients already inside the coded region; it only grows. Per plane we
  // emit bits for the prefix, then group-test the remainder.
  std::size_t prefix = 0;
  for (int p = top_plane; p >= pmin; --p) {
    for (std::size_t i = 0; i < prefix; ++i) emit_coeff_bit(i, p);
    std::size_t i = prefix;
    while (i < kBlock) {
      bool has = false;
      for (std::size_t j = i; j < kBlock; ++j) {
        if ((u[j] >> p) & 1u) {
          has = true;
          break;
        }
      }
      bits.write_bit(has);
      if (!has) break;
      // Emit bits up to and including the next set one; prefix grows past it.
      while (!emit_coeff_bit(i++, p)) {
      }
      prefix = i;
    }
  }
}

void decode_block(std::size_t n, util::ByteReader& in, util::BitReader& bits,
                  std::vector<double>& out) {
  const auto mode = in.get<std::uint8_t>();
  if (mode == kRaw) {
    auto raw = in.get_bytes(n * sizeof(double));
    const std::size_t base = out.size();
    out.resize(base + n);
    std::memcpy(out.data() + base, raw.data(), raw.size());
    return;
  }
  if (mode == kAllZero) {
    out.insert(out.end(), n, 0.0);
    return;
  }
  const int pmin = mode - kCoded;
  const int emax = in.get<std::int16_t>();
  const int top_plane = in.get<std::int8_t>();
  // The encoder codes planes top_plane..pmin, at least one. |q| < 2^kQBits
  // keeps every coefficient below 2^(kQBits + 1), so top_plane <= kQBits;
  // that also keeps the inverse lifting inside int64 on any stream (each of
  // its six stages grows a value by at most 2^kQBits).
  CANOPUS_CHECK(top_plane >= 0 && top_plane <= kQBits && pmin <= top_plane,
                "zfp stream corrupt (plane)");

  std::array<std::uint64_t, kBlock> u{};
  std::array<bool, kBlock> neg{};
  std::array<bool, kBlock> sig{};
  auto read_coeff_bit = [&](std::size_t i, int p) {
    const bool b = bits.read_bit();
    if (b) {
      u[i] |= std::uint64_t{1} << p;
      if (!sig[i]) {
        neg[i] = bits.read_bit();
        sig[i] = true;
      }
    }
    return b;
  };

  std::size_t prefix = 0;
  for (int p = top_plane; p >= pmin; --p) {
    for (std::size_t i = 0; i < prefix; ++i) read_coeff_bit(i, p);
    std::size_t i = prefix;
    while (i < kBlock) {
      if (!bits.read_bit()) break;
      for (;;) {
        CANOPUS_CHECK(i < kBlock, "zfp stream corrupt (prefix overrun)");
        if (read_coeff_bit(i++, p)) break;
      }
      prefix = i;
    }
  }

  std::array<std::int64_t, kBlock> q{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    const auto mag = static_cast<std::int64_t>(u[i]);
    q[i] = neg[i] ? -mag : mag;
  }
  const std::size_t base = out.size();
  out.resize(base + n);
  rebuild(q, emax, n, out.data() + base);
}

}  // namespace

util::Bytes zfp_encode(std::span<const double> values, double error_bound) {
  util::ByteWriter header;
  header.put_varint(values.size());

  util::ByteWriter block_meta;
  util::BitWriter bits;
  for (std::size_t off = 0; off < values.size(); off += kBlock) {
    const std::size_t n = std::min(kBlock, values.size() - off);
    encode_block(values.subspan(off, n), error_bound, block_meta, bits);
  }
  header.put_vector(block_meta.bytes());
  header.put_vector(bits.finish());
  return header.take();
}

std::vector<double> zfp_decode(util::BytesView bytes) {
  util::ByteReader in(bytes);
  const auto count = in.get_varint();
  const auto block_meta = in.get_vector<std::byte>();
  const auto payload = in.get_vector<std::byte>();

  // Every block contributed at least its mode byte to the metadata stream.
  CANOPUS_CHECK((count + kBlock - 1) / kBlock <= block_meta.size(),
                "zfp stream corrupt (count)");
  util::ByteReader meta(block_meta);
  util::BitReader bits(payload);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t off = 0; off < count; off += kBlock) {
    const std::size_t n = std::min(kBlock, static_cast<std::size_t>(count) - off);
    decode_block(n, meta, bits, out);
  }
  return out;
}

namespace detail {

void forward_transform64(std::int64_t* a) {
#if CANOPUS_SIMD_X86
  if (util::simd::use_avx2()) {
    forward_transform_avx2(a);
    return;
  }
#endif
  forward_transform_scalar(a);
}

void inverse_transform64(std::int64_t* a) {
#if CANOPUS_SIMD_X86
  if (util::simd::use_avx2()) {
    inverse_transform_avx2(a);
    return;
  }
#endif
  inverse_transform_scalar(a);
}

}  // namespace detail

}  // namespace canopus::compress
