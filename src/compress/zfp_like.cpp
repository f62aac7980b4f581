#include "compress/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/assert.hpp"
#include "util/bitstream.hpp"

namespace canopus::compress {

namespace {

constexpr std::size_t kBlock = detail::kZfpBlock;
// Fixed-point budget: |q| < 2^kQBits after scaling, leaving headroom for the
// transform's detail coefficients (|d| <= 2 * max|q|) inside int64.
constexpr int kQBits = 60;
// A Rice block's indices: |q| <= 2^52 keeps q exact in a double, so a zigzag
// index is at most 2^53, and the fewest-bits k at most 53 (at k = 54 every
// quotient is 0, and k = 53 costs no more).
constexpr std::uint64_t kMaxIndex = std::uint64_t{1} << 53;
constexpr int kMaxRiceK = 53;

// A block's first metadata byte: all zero, raw, kLifted + p for a block
// lifted and coded down to plane p (0..kQBits), or kRice + k for one
// quantized and Rice-coded with parameter k (0..kMaxRiceK). Modes 63..123
// held untransformed bit planes in a retired layout and are corrupt.
enum BlockMode : std::uint8_t {
  kAllZero,
  kRaw,
  kLifted,
  kRice = 124,
};

/// One forward lifting stage over a[0..len): pair (even, odd), emit sums then
/// details.
void forward_stage(std::int64_t* a, std::int64_t* tmp, std::size_t len) {
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

void inverse_stage(std::int64_t* a, std::int64_t* tmp, std::size_t len) {
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

/// The decoder's reconstruction of a lifted block's first `n` values from its
/// signed coefficients: inverse lifting, then back from fixed point. The
/// encoder's plane check runs it too, so the bound is checked on the doubles
/// a reader gets.
void rebuild(std::array<std::int64_t, kBlock>& q, int emax, std::size_t n,
             double* out) {
  detail::inverse_transform64(q.data());
  const double inv_scale = std::ldexp(1.0, emax - kQBits);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(q[i]) * inv_scale;
  }
}

/// `mag` rounded to the nearest multiple of 2^p, halves up.
std::uint64_t round_to_plane(std::uint64_t mag, int p) {
  return (mag + ((std::uint64_t{1} << p) >> 1)) >> p << p;
}

/// The lifted candidate: the block's signed fixed-point coefficients after the
/// Haar lifting, and the plan checked for them. `plane` is the lowest coded
/// plane (-1 when no plane holds the bound), `mags` the coefficient
/// magnitudes rounded to it, `top_plane` their highest set bit and `bits` the
/// payload the embedded coder spends on them.
struct Lifted {
  std::array<std::int64_t, kBlock> coeffs{};
  std::array<std::uint64_t, kBlock> mags{};
  int plane = -1;
  int top_plane = 0;
  std::size_t bits = 0;
};

/// The quantize-and-Rice candidate: each value's zigzagged index, and the
/// Rice parameter `k` that codes them in the fewest `bits` (-1 when some
/// value cannot take an index).
struct Rice {
  std::array<std::uint64_t, kBlock> index{};
  std::size_t n = 0;
  int k = -1;
  std::size_t bits = 0;
};

/// Sets c.plane, c.mags and c.top_plane: planes are tried from one above the
/// tolerance's own plane downward, each by rounding every magnitude to it and
/// rebuilding the block as the decoder would; the first at which every one of
/// `vals` decodes within `tolerance` is kept. A plane that rounds every
/// magnitude to zero cannot hold (the block has a value beyond the bound), and
/// one whose rounding carries a magnitude to 2^(kQBits + 1) is skipped, so a
/// stored top plane never exceeds kQBits. An error bound <= 0 keeps every
/// plane unchecked.
void choose_plane(Lifted& c, std::span<const double> vals, double tolerance,
                  int emax) {
  const bool checked = tolerance > 0.0;
  // q = x * 2^(kQBits - emax); the tolerance in q units is tol_q.
  const double tol_q = std::ldexp(tolerance, kQBits - emax);
  std::array<std::int64_t, kBlock> q{};
  std::array<double, kBlock> rec{};
  const int start = checked && tol_q >= 1.0 ? std::ilogb(tol_q) + 1 : 0;
  for (int p = start; p >= 0; --p) {
    std::uint64_t kept = 0;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const auto mag = static_cast<std::uint64_t>(std::abs(c.coeffs[i]));
      c.mags[i] = round_to_plane(mag, p);
      kept |= c.mags[i];
    }
    if (kept == 0 || kept >> (kQBits + 1)) continue;
    bool holds = true;
    if (checked) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        const auto mag = static_cast<std::int64_t>(c.mags[i]);
        q[i] = c.coeffs[i] < 0 ? -mag : mag;
      }
      rebuild(q, emax, vals.size(), rec.data());
      for (std::size_t i = 0; i < vals.size() && holds; ++i) {
        holds = std::abs(rec[i] - vals[i]) <= tolerance;
      }
    }
    if (holds) {
      c.plane = p;
      c.top_plane = 63 - std::countl_zero(kept);
      return;
    }
  }
}

/// The payload bits emit_planes spends on c, counted without coding. Per
/// plane p the coder writes one bit per coefficient already in the prefix,
/// then extends the prefix past every coefficient whose first 1 bit is
/// plane p (one group-test bit and the bits up to it each), then one
/// group-test 0 unless the prefix covers the block; each coefficient's sign
/// follows its first 1 bit once. So only where each coefficient's top bit
/// lies matters.
std::size_t count_bits(const Lifted& c) {
  std::array<std::uint64_t, 64> first_one{};  // coefficients by top bit
  std::size_t bits = 0;
  for (std::size_t i = 0; i < kBlock; ++i) {
    if (c.mags[i] == 0) continue;
    first_one[63 - std::countl_zero(c.mags[i])] |= std::uint64_t{1} << i;
    ++bits;  // its sign
  }
  std::size_t prefix = 0;
  for (int p = c.top_plane; p >= c.plane; --p) {
    const std::uint64_t fresh = prefix < kBlock ? first_one[p] >> prefix : 0;
    if (fresh) {
      bits += static_cast<std::size_t>(std::popcount(fresh));
      prefix = kBlock - static_cast<std::size_t>(std::countl_zero(first_one[p]));
    }
    bits += prefix + (prefix < kBlock ? 1 : 0);
  }
  return bits;
}

/// Embedded coding of c's magnitudes, MSB plane first, with sign-magnitude
/// coefficients: the sign is emitted once, right after a coefficient's first
/// 1 bit. (Zigzag coding would put the sign in the lowest bit, which dropping
/// planes destroys.) `prefix` is the number of leading coefficients already
/// inside the coded region; it only grows. Per plane we emit bits for the
/// prefix, then group-test the remainder.
void emit_planes(const Lifted& c, util::BitWriter& bits) {
  auto emit_coeff_bit = [&](std::size_t i, int p) {
    const bool b = (c.mags[i] >> p) & 1u;
    bits.write_bit(b);
    if (b && c.mags[i] >> p == 1) bits.write_bit(c.coeffs[i] < 0);  // first 1
    return b;
  };
  std::size_t prefix = 0;
  for (int p = c.top_plane; p >= c.plane; --p) {
    for (std::size_t i = 0; i < prefix; ++i) emit_coeff_bit(i, p);
    std::size_t i = prefix;
    while (i < kBlock) {
      bool has = false;
      for (std::size_t j = i; j < kBlock; ++j) {
        if ((c.mags[j] >> p) & 1u) {
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

/// The bits Rice coding r's indices with parameter k spends: each index z
/// codes as z >> k in unary (that many zeros, then a one) and its low k bits.
std::size_t rice_bits(const Rice& r, int k) {
  std::size_t bits = r.n * static_cast<std::size_t>(k + 1);
  for (std::size_t i = 0; i < r.n; ++i) bits += r.index[i] >> k;
  return bits;
}

/// Plans r, unless some value's index q = round(v / step), step = 2 *
/// tolerance, exceeds 2^52 in magnitude or q * step, computed as the decoder
/// does, lies more than `tolerance` from v. The bits are convex in k (each
/// step up saves sum(ceil((z >> k) / 2)) - n, which only falls), so the first
/// k whose successor costs no fewer is the smallest that minimizes them.
void plan_rice(Rice& r, std::span<const double> vals, double tolerance) {
  const double step = 2.0 * tolerance;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const double q = std::round(vals[i] / step);
    if (!(std::abs(q) <= 0x1p52 && std::abs(q * step - vals[i]) <= tolerance)) {
      return;
    }
    const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(q));
    r.index[i] = (u << 1) ^ (q < 0 ? ~std::uint64_t{0} : 0);
  }
  r.n = vals.size();
  r.k = 0;
  r.bits = rice_bits(r, 0);
  while (r.k < kMaxRiceK) {
    const std::size_t next = rice_bits(r, r.k + 1);
    if (next >= r.bits) break;
    r.bits = next;
    ++r.k;
  }
}

void emit_rice(const Rice& r, util::BitWriter& bits) {
  for (std::size_t i = 0; i < r.n; ++i) {
    bits.write_unary(static_cast<std::uint32_t>(r.index[i] >> r.k));
    bits.write_bits(r.index[i], static_cast<unsigned>(r.k));
  }
}

/// What encode_block decides before it writes anything: kAllZero for a block
/// within the bound of zero, kRaw for one with a non-finite value or that no
/// candidate holds, else the holding candidate with fewer bits, counting a
/// lifted block's exponent and top plane bytes; kRice on a tie, as it decodes
/// without the inverse lifting.
BlockMode plan_block(std::span<const double> vals, double tolerance, int& emax,
                     Lifted& lifted, Rice& rice) {
  CANOPUS_ASSERT(!vals.empty() && vals.size() <= kBlock);
  double maxabs = 0.0;
  for (double v : vals) {
    if (!std::isfinite(v)) return kRaw;
    maxabs = std::max(maxabs, std::abs(v));
  }
  // Zeros decode within the bound of every value: nothing to code.
  if (maxabs == 0.0 || maxabs <= tolerance) return kAllZero;
  if (tolerance > 0.0) plan_rice(rice, vals, tolerance);
  emax = std::ilogb(maxabs) + 1;  // maxabs < 2^emax
  const double scale = std::ldexp(1.0, kQBits - emax);
  if (std::isfinite(scale)) {  // below ~2^-964 it overflows
    // Pad a short tail block by repeating its last value (keeps it smooth).
    for (std::size_t i = 0; i < kBlock; ++i) {
      lifted.coeffs[i] = std::llround(vals[std::min(i, vals.size() - 1)] * scale);
    }
    detail::forward_transform64(lifted.coeffs.data());
    choose_plane(lifted, vals, tolerance, emax);
    if (lifted.plane >= 0) lifted.bits = count_bits(lifted);
  }
  const bool lifts = lifted.plane >= 0;
  if (rice.k >= 0 && (!lifts || rice.bits <= lifted.bits + 24)) {
    return kRice;
  }
  return lifts ? kLifted : kRaw;
}

void encode_block(std::span<const double> vals, double tolerance,
                  util::ByteWriter& out, util::BitWriter& bits) {
  int emax = 0;
  Lifted lifted;
  Rice rice;
  switch (plan_block(vals, tolerance, emax, lifted, rice)) {
    case kAllZero:
      return out.put(static_cast<std::uint8_t>(kAllZero));
    case kRaw:
      out.put(static_cast<std::uint8_t>(kRaw));
      return out.put_bytes(vals.data(), vals.size() * sizeof(double));
    case kRice:
      out.put(static_cast<std::uint8_t>(kRice + rice.k));
      return emit_rice(rice, bits);
    case kLifted:
      out.put(static_cast<std::uint8_t>(kLifted + lifted.plane));
      out.put(static_cast<std::int16_t>(emax));
      out.put(static_cast<std::int8_t>(lifted.top_plane));
      return emit_planes(lifted, bits);
  }
}

void decode_block(std::size_t n, double step, util::ByteReader& in,
                  util::BitReader& bits, std::vector<double>& out) {
  const auto mode = in.get<std::uint8_t>();
  const std::size_t base = out.size();
  if (mode == kRaw) {
    auto raw = in.get_bytes(n * sizeof(double));
    out.resize(base + n);
    std::memcpy(out.data() + base, raw.data(), raw.size());
    return;
  }
  if (mode == kAllZero) {
    out.insert(out.end(), n, 0.0);
    return;
  }
  if (mode >= kRice) {  // each index: unary quotient, then its low k bits
    const int k = mode - kRice;
    CANOPUS_CHECK(k <= kMaxRiceK, "zfp stream corrupt (rice parameter)");
    CANOPUS_CHECK(std::isfinite(step) && step > 0.0, "zfp stream corrupt (rice bound)");
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t quot = bits.read_unary();
      const std::uint64_t z =
          quot <= kMaxIndex >> k ? (quot << k) | bits.read_bits(k) : ~std::uint64_t{0};
      CANOPUS_CHECK(z <= kMaxIndex, "zfp stream corrupt (rice index)");
      const auto q = static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
      out.push_back(static_cast<double>(q) * step);
    }
    return;
  }
  const int pmin = mode - kLifted;
  const int emax = in.get<std::int16_t>();
  const int top_plane = in.get<std::int8_t>();
  // The encoder codes planes top_plane..pmin, at least one, and keeps every
  // rounded magnitude below 2^(kQBits + 1), so top_plane <= kQBits (which
  // also rejects every retired mode from kLifted + kQBits + 1 up). That keeps
  // the inverse lifting inside int64 on any stream: each of its six stages
  // grows a value by at most 2^kQBits.
  CANOPUS_CHECK(top_plane >= 0 && top_plane <= kQBits && pmin <= top_plane,
                "zfp stream corrupt (plane)");

  std::array<std::uint64_t, kBlock> u{};
  std::array<bool, kBlock> neg{};
  auto read_coeff_bit = [&](std::size_t i, int p) {
    const bool b = bits.read_bit();
    if (b && u[i] == 0) neg[i] = bits.read_bit();  // its first 1
    if (b) u[i] |= std::uint64_t{1} << p;
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
  out.resize(base + n);
  rebuild(q, emax, n, out.data() + base);
}

}  // namespace

util::Bytes zfp_encode(std::span<const double> values, double error_bound) {
  util::ByteWriter header;
  header.put_varint(values.size());
  header.put(error_bound);

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
  const double step = 2.0 * in.get<double>();
  const auto block_meta = in.get_vector<std::byte>();
  const auto payload = in.get_vector<std::byte>();

  // Every block contributed at least its mode byte to the metadata stream
  // (a block count without the sum that rounds it up, which would wrap).
  CANOPUS_CHECK(count / kBlock + (count % kBlock != 0) <= block_meta.size(),
                "zfp stream corrupt (count)");
  util::ByteReader meta(block_meta);
  util::BitReader bits(payload);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t off = 0; off < count; off += kBlock) {
    const std::size_t n = std::min(kBlock, static_cast<std::size_t>(count) - off);
    decode_block(n, step, meta, bits, out);
  }
  return out;
}

namespace detail {

std::array<ZfpCandidateBits, 2> zfp_candidate_bits(std::span<const double> block,
                                                   double error_bound) {
  int emax = 0;
  Lifted lifted;
  Rice rice;
  plan_block(block, error_bound, emax, lifted, rice);
  std::array<ZfpCandidateBits, 2> out{};
  if (lifted.plane >= 0) {
    util::BitWriter bits;
    emit_planes(lifted, bits);
    out[0] = {true, lifted.bits, bits.bit_count()};
  }
  if (rice.k >= 0) {
    util::BitWriter bits;
    emit_rice(rice, bits);
    out[1] = {true, rice.bits, bits.bit_count()};
  }
  return out;
}

void forward_transform64(std::int64_t* a) {
  std::int64_t tmp[kBlock];
  for (std::size_t len = kBlock; len >= 2; len /= 2) {
    forward_stage(a, tmp, len);
  }
}

void inverse_transform64(std::int64_t* a) {
  std::int64_t tmp[kBlock];
  for (std::size_t len = 2; len <= kBlock; len *= 2) {
    inverse_stage(a, tmp, len);
  }
}

}  // namespace detail

}  // namespace canopus::compress
