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

// A block's first metadata byte: all zero, raw, or kLifted / kPlain + p for
// a block coded with / without the lifting down to plane p (0..kQBits).
// Folding the plane into this byte keeps a coded block's metadata at 4 bytes.
enum BlockMode : std::uint8_t {
  kAllZero,
  kRaw,
  kLifted,
  kPlain = kLifted + kQBits + 1,
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

/// The decoder's reconstruction of a block's first `n` values from its signed
/// coefficients: inverse lifting for a lifted block, then back from fixed
/// point. The encoder's plane check runs it too, so the bound is checked on
/// the doubles a reader gets.
void rebuild(std::array<std::int64_t, kBlock>& q, bool lifted, int emax,
             std::size_t n, double* out) {
  if (lifted) detail::inverse_transform64(q.data());
  const double inv_scale = std::ldexp(1.0, emax - kQBits);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(q[i]) * inv_scale;
  }
}

/// `mag` rounded to the nearest multiple of 2^p, halves up.
std::uint64_t round_to_plane(std::uint64_t mag, int p) {
  return (mag + ((std::uint64_t{1} << p) >> 1)) >> p << p;
}

/// One way to code a block: its signed fixed-point coefficients, through the
/// Haar lifting or with no transform, and the plan checked for them. `plane`
/// is the lowest coded plane (-1 when no plane holds the bound), `mags` the
/// coefficient magnitudes rounded to it, `top_plane` their highest set bit
/// and `bits` the payload the embedded coder spends on them.
struct Candidate {
  bool lifted = false;
  std::array<std::int64_t, kBlock> coeffs{};
  std::array<std::uint64_t, kBlock> mags{};
  int plane = -1;
  int top_plane = 0;
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
void choose_plane(Candidate& c, std::span<const double> vals, double tolerance,
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
      rebuild(q, c.lifted, emax, vals.size(), rec.data());
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
std::size_t count_bits(const Candidate& c) {
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
void emit_planes(const Candidate& c, util::BitWriter& bits) {
  std::array<bool, kBlock> sig{};
  auto emit_coeff_bit = [&](std::size_t i, int p) {
    const bool b = (c.mags[i] >> p) & 1u;
    bits.write_bit(b);
    if (b && !sig[i]) {
      bits.write_bit(c.coeffs[i] < 0);
      sig[i] = true;
    }
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

/// What encode_block decides before it writes anything: kAllZero or kRaw
/// for a block that needs no coding or has no fixed point to code in, else
/// kLifted with the block's exponent and both candidates planned.
BlockMode plan_block(std::span<const double> vals, double tolerance, int& emax,
                     std::array<Candidate, 2>& candidates) {
  CANOPUS_ASSERT(!vals.empty() && vals.size() <= kBlock);
  double maxabs = 0.0;
  for (double v : vals) {
    if (!std::isfinite(v)) return kRaw;
    maxabs = std::max(maxabs, std::abs(v));
  }
  // Zeros decode within the bound of every value: nothing to code.
  if (maxabs == 0.0 || maxabs <= tolerance) return kAllZero;
  emax = std::ilogb(maxabs) + 1;  // maxabs < 2^emax
  const double scale = std::ldexp(1.0, kQBits - emax);
  // Below ~2^-964 the scale itself overflows: no fixed point to code in.
  if (!std::isfinite(scale)) return kRaw;

  auto& [lifted, plain] = candidates;
  lifted.lifted = true;
  for (std::size_t i = 0; i < kBlock; ++i) {
    // Pad a short tail block with zeros when untransformed (they cost no
    // group tests) and by repeating the last value when lifted (keeps it
    // smooth).
    plain.coeffs[i] = i < vals.size() ? std::llround(vals[i] * scale) : 0;
    lifted.coeffs[i] =
        i < vals.size() ? plain.coeffs[i] : plain.coeffs[vals.size() - 1];
  }
  detail::forward_transform64(lifted.coeffs.data());
  for (Candidate& c : candidates) {
    choose_plane(c, vals, tolerance, emax);
    if (c.plane >= 0) c.bits = count_bits(c);
  }
  return kLifted;
}

void put_raw(std::span<const double> vals, util::ByteWriter& out) {
  out.put(static_cast<std::uint8_t>(kRaw));
  out.put_bytes(vals.data(), vals.size() * sizeof(double));
}

void encode_block(std::span<const double> vals, double tolerance,
                  util::ByteWriter& out, util::BitWriter& bits) {
  int emax = 0;
  std::array<Candidate, 2> candidates;
  const BlockMode planned = plan_block(vals, tolerance, emax, candidates);
  if (planned == kRaw) return put_raw(vals, out);
  if (planned == kAllZero) {
    out.put(static_cast<std::uint8_t>(kAllZero));
    return;
  }
  // The cheaper candidate that holds the bound; plain on a tie, as it
  // decodes without the inverse lifting.
  const Candidate* best = nullptr;
  for (const Candidate* c : {&candidates[1], &candidates[0]}) {
    if (c->plane >= 0 && (!best || c->bits < best->bits)) best = c;
  }
  if (!best) return put_raw(vals, out);
  out.put(static_cast<std::uint8_t>((best->lifted ? kLifted : kPlain) +
                                    best->plane));
  out.put(static_cast<std::int16_t>(emax));
  out.put(static_cast<std::int8_t>(best->top_plane));
  emit_planes(*best, bits);
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
  const bool lifted = mode < kPlain;
  const int pmin = mode - (lifted ? kLifted : kPlain);
  const int emax = in.get<std::int16_t>();
  const int top_plane = in.get<std::int8_t>();
  // The encoder codes planes top_plane..pmin, at least one, and keeps every
  // rounded magnitude below 2^(kQBits + 1), so top_plane <= kQBits (which
  // also rejects every mode above kPlain + kQBits). That keeps the inverse
  // lifting inside int64 on any stream: each of its six stages grows a value
  // by at most 2^kQBits.
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
  rebuild(q, lifted, emax, n, out.data() + base);
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
    decode_block(n, meta, bits, out);
  }
  return out;
}

namespace detail {

std::array<ZfpCandidateBits, 2> zfp_candidate_bits(std::span<const double> block,
                                                   double error_bound) {
  int emax = 0;
  std::array<Candidate, 2> candidates;
  std::array<ZfpCandidateBits, 2> out{};
  if (plan_block(block, error_bound, emax, candidates) != kLifted) return out;
  for (std::size_t k = 0; k < 2; ++k) {
    const Candidate& c = candidates[k];
    if (c.plane < 0) continue;
    util::BitWriter bits;
    emit_planes(c, bits);
    out[k] = {true, c.bits, bits.bit_count()};
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
