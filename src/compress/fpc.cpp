#include "compress/fpc.hpp"

#include <bit>
#include <cstring>

#include "util/assert.hpp"

namespace canopus::compress {

namespace {

/// The FCM and DFCM predictors over `tables`, zeroed at 2^table_bits
/// entries each.
struct Predictors {
  Predictors(FpcTables& tables, unsigned table_bits)
      : mask((std::size_t{1} << table_bits) - 1) {
    tables.fcm.assign(mask + 1, 0);
    tables.dfcm.assign(mask + 1, 0);
    fcm = tables.fcm.data();
    dfcm = tables.dfcm.data();
  }

  std::uint64_t predict_fcm() const { return fcm[fcm_hash]; }
  std::uint64_t predict_dfcm() const { return dfcm[dfcm_hash] + last; }

  void update(std::uint64_t actual) {
    fcm[fcm_hash] = actual;
    fcm_hash = ((fcm_hash << 6) ^ (actual >> 48)) & mask;
    const std::uint64_t stride = actual - last;
    dfcm[dfcm_hash] = stride;
    dfcm_hash = ((dfcm_hash << 2) ^ (stride >> 40)) & mask;
    last = actual;
  }

  std::size_t mask;
  std::uint64_t* fcm;
  std::uint64_t* dfcm;
  std::size_t fcm_hash = 0, dfcm_hash = 0;
  std::uint64_t last = 0;
};

inline unsigned leading_zero_bytes(std::uint64_t x) {
  if (x == 0) return 8;
  return static_cast<unsigned>(std::countl_zero(x)) / 8;
}

// As in the FPC paper, the 3-bit count field maps to {0,1,2,3,5,6,7,8}
// leading zero bytes; an actual count of 4 is demoted to 3 (one extra tail
// byte) so a fully predicted value costs zero tail bytes.
constexpr std::array<unsigned, 8> kCodeToLzb{0, 1, 2, 3, 5, 6, 7, 8};

inline unsigned lzb_to_code(unsigned lzb) {
  if (lzb == 4) return 3;
  return lzb < 4 ? lzb : lzb - 1;
}

}  // namespace

util::Bytes fpc_encode(std::span<const double> values, unsigned table_bits) {
  FpcTables tables;
  return fpc_encode(values, tables, table_bits);
}

util::Bytes fpc_encode(std::span<const double> values, FpcTables& tables,
                       unsigned table_bits) {
  CANOPUS_CHECK(table_bits >= 4 && table_bits <= 24, "fpc table_bits out of range");
  Predictors p(tables, table_bits);
  util::ByteWriter out(values.size() * 5);
  out.put_varint(values.size());
  out.put(static_cast<std::uint8_t>(table_bits));

  // Per value: header nibble = (predictor bit << 3) | min(lzb, 7),
  // two headers packed per byte, followed by the value-residual tails.
  std::vector<std::uint8_t> headers((values.size() + 1) / 2, 0);
  util::ByteWriter tails(values.size() * 4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    const std::uint64_t f = p.predict_fcm();
    const std::uint64_t d = p.predict_dfcm();
    const std::uint64_t xf = bits ^ f;
    const std::uint64_t xd = bits ^ d;
    const bool use_dfcm = leading_zero_bytes(xd) > leading_zero_bytes(xf);
    const std::uint64_t residual = use_dfcm ? xd : xf;
    const unsigned code = lzb_to_code(leading_zero_bytes(residual));
    const unsigned lzb = kCodeToLzb[code];
    const auto nibble =
        static_cast<std::uint8_t>((use_dfcm ? 0x8 : 0x0) | code);
    if (i % 2 == 0) {
      headers[i / 2] = nibble;
    } else {
      headers[i / 2] |= static_cast<std::uint8_t>(nibble << 4);
    }
    const unsigned tail_bytes = 8 - lzb;
    for (unsigned b = 0; b < tail_bytes; ++b) {
      tails.put(static_cast<std::uint8_t>((residual >> (8 * b)) & 0xFF));
    }
    p.update(bits);
  }
  out.put_bytes(headers.data(), headers.size());
  out.put_bytes(tails.view());
  return out.take();
}

std::vector<double> fpc_decode(util::BytesView bytes) {
  FpcTables tables;
  return fpc_decode(bytes, tables);
}

std::vector<double> fpc_decode(util::BytesView bytes, FpcTables& tables) {
  util::ByteReader in(bytes);
  const auto count = in.get_varint();
  const auto table_bits = in.get<std::uint8_t>();
  CANOPUS_CHECK(table_bits >= 4 && table_bits <= 24, "fpc stream corrupt");
  CANOPUS_CHECK(count / 2 <= in.remaining(), "fpc stream corrupt (count)");
  Predictors p(tables, table_bits);
  const auto headers = in.get_bytes((count + 1) / 2);

  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto packed = static_cast<std::uint8_t>(headers[i / 2]);
    const auto nibble = static_cast<std::uint8_t>(i % 2 == 0 ? packed & 0xF : packed >> 4);
    const bool use_dfcm = (nibble & 0x8) != 0;
    const unsigned lzb = kCodeToLzb[nibble & 0x7];
    const unsigned tail_bytes = 8 - lzb;
    std::uint64_t residual = 0;
    for (unsigned b = 0; b < tail_bytes; ++b) {
      residual |= static_cast<std::uint64_t>(in.get<std::uint8_t>()) << (8 * b);
    }
    const std::uint64_t pred = use_dfcm ? p.predict_dfcm() : p.predict_fcm();
    const std::uint64_t bits = residual ^ pred;
    std::memcpy(&out[i], &bits, sizeof(bits));
    p.update(bits);
  }
  return out;
}

}  // namespace canopus::compress
