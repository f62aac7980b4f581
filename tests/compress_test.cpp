// Unit and property tests for the compression library: round-trips, error
// bounds, compression-ratio behavior on smooth vs rough signals, corrupt
// stream handling, and the codec registry.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.hpp"
#include "compress/fpc.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "compress/sz_like.hpp"
#include "compress/zfp_like.hpp"
#include "util/bitstream.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"

namespace cc = canopus::compress;
namespace cu = canopus::util;

namespace {

cu::Bytes to_bytes(const std::string& s) {
  cu::Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::vector<double> smooth_signal(std::size_t n, std::uint64_t seed = 3) {
  cu::Rng rng(seed);
  std::vector<double> xs(n);
  const double phase = rng.uniform(0.0, 6.28);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 0.01;
    xs[i] = 10.0 * std::sin(t + phase) + 2.0 * std::sin(5.0 * t) + 100.0;
  }
  return xs;
}

std::vector<double> rough_signal(std::size_t n, std::uint64_t seed = 5) {
  cu::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(-50.0, 50.0);
  return xs;
}

}  // namespace

// ---------------------------------------------------------------- Huffman --

TEST(Huffman, RoundTripText) {
  const auto input = to_bytes(
      "the quick brown fox jumps over the lazy dog -- the the the the");
  const auto enc = cc::huffman_encode(input);
  EXPECT_EQ(cc::huffman_decode(enc), input);
}

TEST(Huffman, RoundTripEmpty) {
  const cu::Bytes empty;
  EXPECT_EQ(cc::huffman_decode(cc::huffman_encode(empty)), empty);
}

TEST(Huffman, RoundTripSingleSymbolRun) {
  const cu::Bytes input(1000, std::byte{0x41});
  const auto enc = cc::huffman_encode(input);
  EXPECT_EQ(cc::huffman_decode(enc), input);
  EXPECT_LT(enc.size(), 200u);  // 1 bit per symbol plus table
}

TEST(Huffman, RoundTripAllByteValues) {
  cu::Bytes input;
  for (int rep = 0; rep < 3; ++rep) {
    for (int b = 0; b < 256; ++b) input.push_back(static_cast<std::byte>(b));
  }
  EXPECT_EQ(cc::huffman_decode(cc::huffman_encode(input)), input);
}

TEST(Huffman, SkewedDistributionCompresses) {
  cu::Rng rng(17);
  cu::Bytes input(20000);
  for (auto& b : input) {
    // ~90% zeros.
    b = rng.uniform() < 0.9 ? std::byte{0}
                            : static_cast<std::byte>(rng.uniform_index(256));
  }
  const auto enc = cc::huffman_encode(input);
  EXPECT_LT(enc.size(), input.size() / 2);
}

TEST(Huffman, RandomRoundTripSweep) {
  cu::Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.uniform_index(5000);
    cu::Bytes input(n);
    for (auto& b : input) b = static_cast<std::byte>(rng.uniform_index(256));
    EXPECT_EQ(cc::huffman_decode(cc::huffman_encode(input)), input)
        << "trial " << trial;
  }
}

// The table-driven coder writes the stream the bit-at-a-time one did, and
// reads it back: CRC-32s of its output, recorded before the rewrite, for a
// uniform input, a skewed one whose rare symbols take codes longer than the
// decoder's lookup window, and a single-symbol run.
TEST(Huffman, StreamBytesArePinned) {
  cu::Bytes uniform(4096);
  cu::Rng rng(101);
  for (auto& b : uniform) b = static_cast<std::byte>(rng.uniform_index(256));
  cu::Bytes skewed(1 << 16);
  rng.reseed(102);
  for (auto& b : skewed) {
    b = static_cast<std::byte>(std::countr_zero(rng.next_u64() | (1ull << 40)));
  }
  const cu::Bytes single(1000, std::byte{0x41});
  const std::array<std::pair<const cu::Bytes*, std::uint32_t>, 3> pinned{
      {{&uniform, 0x6069cfe1u}, {&skewed, 0x7786da66u}, {&single, 0xda18a46eu}}};
  for (const auto& [input, crc] : pinned) {
    const auto enc = cc::huffman_encode(*input);
    EXPECT_EQ(cu::Crc32::compute(enc), crc) << input->size() << " symbols";
    EXPECT_EQ(cc::huffman_decode(enc), *input);
  }
}

// ------------------------------------------------------------------- LZSS --

TEST(Lzss, RoundTripText) {
  const auto input =
      to_bytes("abcabcabcabcabc-hello-hello-hello-world-world-world");
  EXPECT_EQ(cc::lzss_decode(cc::lzss_encode(input)), input);
}

TEST(Lzss, RoundTripEmptyAndTiny) {
  for (std::size_t n : {0u, 1u, 2u, 3u}) {
    cu::Bytes input(n, std::byte{0x7});
    EXPECT_EQ(cc::lzss_decode(cc::lzss_encode(input)), input);
  }
}

TEST(Lzss, RepetitiveInputCompressesHard) {
  cu::Bytes input;
  for (int i = 0; i < 1000; ++i) {
    for (char ch : {'p', 'a', 't', 't', 'e', 'r', 'n'}) {
      input.push_back(static_cast<std::byte>(ch));
    }
  }
  const auto enc = cc::lzss_encode(input);
  EXPECT_LT(enc.size(), input.size() / 10);
  EXPECT_EQ(cc::lzss_decode(enc), input);
}

TEST(Lzss, IncompressibleInputRoundTrips) {
  cu::Rng rng(29);
  cu::Bytes input(10000);
  for (auto& b : input) b = static_cast<std::byte>(rng.uniform_index(256));
  const auto enc = cc::lzss_encode(input);
  EXPECT_EQ(cc::lzss_decode(enc), input);
  // Flag overhead only: ~12.5% expansion worst case.
  EXPECT_LT(enc.size(), input.size() * 9 / 8 + 64);
}

TEST(Lzss, OverlappingMatchReplay) {
  // 'aaaa...' forces matches whose source overlaps the output cursor.
  const cu::Bytes input(500, std::byte{'a'});
  EXPECT_EQ(cc::lzss_decode(cc::lzss_encode(input)), input);
}

// -------------------------------------------------------------------- FPC --

TEST(Fpc, LosslessRoundTripSmooth) {
  const auto xs = smooth_signal(10000);
  const auto dec = cc::fpc_decode(cc::fpc_encode(xs));
  ASSERT_EQ(dec.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(dec[i], xs[i]);
}

TEST(Fpc, LosslessRoundTripRandom) {
  const auto xs = rough_signal(5000);
  EXPECT_EQ(cc::fpc_decode(cc::fpc_encode(xs)), xs);
}

TEST(Fpc, PreservesSpecialValues) {
  const std::vector<double> xs{0.0, -0.0, 1e-308, -1e308,
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               5.0, 5.0, 5.0};
  const auto dec = cc::fpc_decode(cc::fpc_encode(xs));
  ASSERT_EQ(dec.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&dec[i], &xs[i], sizeof(double)), 0) << "index " << i;
  }
}

TEST(Fpc, PreservesNanBitPattern) {
  const std::vector<double> xs{std::nan(""), 1.0, std::nan("")};
  const auto dec = cc::fpc_decode(cc::fpc_encode(xs));
  ASSERT_EQ(dec.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&dec[i], &xs[i], sizeof(double)), 0);
  }
}

TEST(Fpc, ConstantSeriesCompressesWell) {
  const std::vector<double> xs(8192, 42.5);
  const auto enc = cc::fpc_encode(xs);
  EXPECT_LT(enc.size(), xs.size());  // > 8x ratio
}

TEST(Fpc, EmptyInput) {
  EXPECT_TRUE(cc::fpc_decode(cc::fpc_encode(std::vector<double>{})).empty());
}

// ---------------------------------------------------------------- SZ-like --

TEST(Sz, ErrorBoundHonoredSmooth) {
  const auto xs = smooth_signal(20000);
  for (double eb : {1e-1, 1e-3, 1e-6}) {
    const auto dec = cc::sz_decode(cc::sz_encode(xs, eb));
    ASSERT_EQ(dec.size(), xs.size());
    EXPECT_LE(cu::max_abs_error(xs, dec), eb) << "eb=" << eb;
  }
}

TEST(Sz, ErrorBoundHonoredRough) {
  const auto xs = rough_signal(5000);
  const double eb = 0.5;
  const auto dec = cc::sz_decode(cc::sz_encode(xs, eb));
  EXPECT_LE(cu::max_abs_error(xs, dec), eb);
}

TEST(Sz, TighterBoundCostsMoreBytes) {
  const auto xs = smooth_signal(20000);
  const auto loose = cc::sz_encode(xs, 1e-2);
  const auto tight = cc::sz_encode(xs, 1e-8);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(Sz, ZeroBoundIsLossless) {
  const auto xs = rough_signal(1000);
  EXPECT_EQ(cc::sz_decode(cc::sz_encode(xs, 0.0)), xs);
}

TEST(Sz, HandlesNonFiniteViaEscape) {
  std::vector<double> xs = smooth_signal(100);
  xs[10] = std::numeric_limits<double>::infinity();
  xs[20] = -std::numeric_limits<double>::infinity();
  const auto dec = cc::sz_decode(cc::sz_encode(xs, 1e-3));
  EXPECT_EQ(dec[10], xs[10]);
  EXPECT_EQ(dec[20], xs[20]);
}

TEST(Sz, SmoothBeatsRoughRatio) {
  const auto smooth = smooth_signal(20000);
  const auto rough = rough_signal(20000);
  const double eb = 1e-4;
  EXPECT_LT(cc::sz_encode(smooth, eb).size(), cc::sz_encode(rough, eb).size());
}

// --------------------------------------------------------------- ZFP-like --

TEST(Zfp, ErrorBoundHonoredSmooth) {
  const auto xs = smooth_signal(20000);
  for (double eb : {1.0, 1e-2, 1e-5, 1e-9}) {
    const auto dec = cc::zfp_decode(cc::zfp_encode(xs, eb));
    ASSERT_EQ(dec.size(), xs.size());
    EXPECT_LE(cu::max_abs_error(xs, dec), eb) << "eb=" << eb;
  }
}

TEST(Zfp, ErrorBoundHonoredRough) {
  const auto xs = rough_signal(10000);
  for (double eb : {5.0, 0.1, 1e-6}) {
    const auto dec = cc::zfp_decode(cc::zfp_encode(xs, eb));
    EXPECT_LE(cu::max_abs_error(xs, dec), eb) << "eb=" << eb;
  }
}

TEST(Zfp, NearLosslessAtZeroBound) {
  const auto xs = smooth_signal(5000);
  const auto dec = cc::zfp_decode(cc::zfp_encode(xs, 0.0));
  // Fixed-point quantization leaves ~1e-16 relative error.
  EXPECT_LE(cu::max_abs_error(xs, dec), 1e-12);
}

TEST(Zfp, SmoothCompressesBetterThanRough) {
  const auto smooth = smooth_signal(20000);
  auto rough = rough_signal(20000);
  // Match the dynamic range so the comparison is about smoothness only.
  for (auto& x : rough) x += 100.0;
  const double eb = 1e-4;
  const auto s = cc::zfp_encode(smooth, eb);
  const auto r = cc::zfp_encode(rough, eb);
  EXPECT_LT(s.size(), r.size());
}

TEST(Zfp, LooserBoundSmallerStream) {
  const auto xs = smooth_signal(20000);
  EXPECT_LT(cc::zfp_encode(xs, 1e-1).size(), cc::zfp_encode(xs, 1e-6).size());
}

TEST(Zfp, AllZerosIsTiny) {
  const std::vector<double> xs(4096, 0.0);
  const auto enc = cc::zfp_encode(xs, 1e-6);
  EXPECT_LT(enc.size(), 256u);
  const auto dec = cc::zfp_decode(enc);
  for (double v : dec) EXPECT_EQ(v, 0.0);
}

TEST(Zfp, ConstantBlock) {
  const std::vector<double> xs(100, 7.25);
  const auto dec = cc::zfp_decode(cc::zfp_encode(xs, 1e-9));
  for (double v : dec) EXPECT_NEAR(v, 7.25, 1e-9);
}

TEST(Zfp, TailBlockShorterThan64) {
  for (std::size_t n : {1u, 7u, 63u, 64u, 65u, 127u, 130u}) {
    const auto xs = smooth_signal(n, n);
    const auto dec = cc::zfp_decode(cc::zfp_encode(xs, 1e-8));
    ASSERT_EQ(dec.size(), n);
    EXPECT_LE(cu::max_abs_error(xs, dec), 1e-8) << "n=" << n;
  }
}

TEST(Zfp, NonFiniteBlockStoredRaw) {
  std::vector<double> xs = smooth_signal(200);
  xs[70] = std::numeric_limits<double>::quiet_NaN();
  const auto dec = cc::zfp_decode(cc::zfp_encode(xs, 1e-6));
  ASSERT_EQ(dec.size(), xs.size());
  EXPECT_TRUE(std::isnan(dec[70]));
  // The NaN block (values 64..127) is verbatim; others stay bounded.
  EXPECT_EQ(dec[65], xs[65]);
  EXPECT_NEAR(dec[10], xs[10], 1e-6);
}

TEST(Zfp, HugeDynamicRange) {
  std::vector<double> xs;
  for (int i = 0; i < 256; ++i) {
    xs.push_back(std::ldexp(1.0, (i % 60) - 30));  // 2^-30 .. 2^29
  }
  const double eb = 1e-3;
  const auto dec = cc::zfp_decode(cc::zfp_encode(xs, eb));
  EXPECT_LE(cu::max_abs_error(xs, dec), eb);
}

TEST(Zfp, NegativeValuesRoundTrip) {
  auto xs = smooth_signal(1000);
  for (auto& x : xs) x -= 100.0;  // center near zero, mixed signs
  const auto dec = cc::zfp_decode(cc::zfp_encode(xs, 1e-7));
  EXPECT_LE(cu::max_abs_error(xs, dec), 1e-7);
}

// One block mixing exponents 20 binades apart: its fixed-point quantum
// (2^-26, from the 1e10 value) is far coarser than the small values, so only
// raw storage holds a tight bound on them.
TEST(Zfp, BoundHeldBelowTheBlockQuantum) {
  std::vector<double> xs(64);
  xs[0] = 1e10;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    xs[i] = 1e-10 * (1.0 + 0.1 * static_cast<double>(i));
  }
  for (double eb : {1e-9, 1e-12, 1e-15}) {
    const auto dec = cc::zfp_decode(cc::zfp_encode(xs, eb));
    ASSERT_EQ(dec.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_LE(std::abs(dec[i] - xs[i]), eb) << "eb=" << eb << " i=" << i;
    }
  }
}

// Values below ~2^-964 overflow the fixed-point scale; such a block is kept
// verbatim rather than coded from an infinite scale.
TEST(Zfp, BlockBelowTheFixedPointRangeStoredRaw) {
  std::vector<double> xs(100, 0.0);
  for (std::size_t i = 0; i < xs.size(); i += 3) {
    xs[i] = (i % 2 ? -1e-300 : 1e-300) * static_cast<double>(i + 1);
  }
  const auto dec = cc::zfp_decode(cc::zfp_encode(xs, 1e-320));
  EXPECT_EQ(dec, xs);
}

// Rounding a magnitude just below 2^61 to a coarse plane would carry it to
// 2^61, past the top plane 60 the decoder accepts. A block of +a then -a
// (a = 1 - 2^-40, so |q| = 2^60 - 2^20) puts 2^61 - 2^21 in its coarsest
// lifting detail and nothing else in its coefficients, so lifting stays far
// cheaper than quantizing every value, but every plane from 22 up would
// carry: the encoder must code it lifted down to plane 21 with top plane 60.
TEST(Zfp, RoundingNeverCarriesPastTopPlane60) {
  const double a = 1.0 - std::ldexp(1.0, -40);
  std::vector<double> xs(64, a);
  std::fill(xs.begin() + 32, xs.end(), -a);
  const auto bits = cc::detail::zfp_candidate_bits(xs, 0.1);
  ASSERT_TRUE(bits[0].held && bits[1].held);
  EXPECT_LT(bits[0].counted + 24, bits[1].counted);  // + emax and top plane
  const auto enc = cc::zfp_encode(xs, 0.1);
  cu::ByteReader in(enc);
  in.get_varint();
  EXPECT_EQ(in.get<double>(), 0.1);
  const auto meta = in.get_vector<std::uint8_t>();
  ASSERT_EQ(meta.size(), 4u);      // mode, emax (int16), top plane
  EXPECT_EQ(meta[0], 2 + 21);      // lifted, down to plane 21
  EXPECT_EQ(meta[3], 60);
  const auto dec = cc::zfp_decode(enc);
  ASSERT_EQ(dec.size(), xs.size());
  EXPECT_LE(cu::max_abs_error(xs, dec), 0.1);
}

// A lifted block (mode 2 + p, emax, top plane, then planes top..p
// group-tested, each sign after its coefficient's first 1 bit), built by
// hand, decodes to the values the inverse lifting gives its coefficients: a
// DC of 1000 and five details coded down to plane 3. Its stream's bound
// plays no part in a lifted block.
TEST(Zfp, HandBuiltLiftedBlockDecodesToPinnedValues) {
  constexpr std::size_t kBlock = cc::detail::kZfpBlock;
  std::array<std::int64_t, kBlock> coeffs{};
  coeffs[0] = 1000;
  coeffs[1] = -96;
  coeffs[2] = 40;
  coeffs[5] = 24;
  coeffs[33] = -8;
  coeffs[63] = 16;
  constexpr int kTop = 9;  // 1000 < 2^10
  constexpr int kLow = 3;  // every magnitude is a multiple of 8
  cu::BitWriter bits;
  std::array<bool, kBlock> sig{};
  auto put_bit = [&](std::size_t i, int p) {
    const std::uint64_t mag = static_cast<std::uint64_t>(std::abs(coeffs[i]));
    const bool b = (mag >> p) & 1u;
    bits.write_bit(b);
    if (b && !sig[i]) {
      bits.write_bit(coeffs[i] < 0);
      sig[i] = true;
    }
    return b;
  };
  std::size_t prefix = 0;
  for (int p = kTop; p >= kLow; --p) {
    for (std::size_t i = 0; i < prefix; ++i) put_bit(i, p);
    std::size_t i = prefix;
    while (i < kBlock) {
      bool has = false;
      for (std::size_t j = i; j < kBlock && !has; ++j) {
        has = (static_cast<std::uint64_t>(std::abs(coeffs[j])) >> p) & 1u;
      }
      bits.write_bit(has);
      if (!has) break;
      while (!put_bit(i++, p)) {
      }
      prefix = i;
    }
  }
  cu::ByteWriter meta;
  meta.put(static_cast<std::uint8_t>(2 + kLow));
  meta.put(std::int16_t{60});  // fixed point scale 2^0: values are integers
  meta.put(static_cast<std::int8_t>(kTop));
  cu::ByteWriter w;
  w.put_varint(kBlock);
  w.put(0.0);  // the bound
  w.put_vector(meta.bytes());
  w.put_vector(bits.finish());

  // What the inverse lifting rebuilds from those coefficients.
  std::vector<double> expected(kBlock, 1048.0);
  std::fill(expected.begin(), expected.begin() + 16, 972.0);
  std::fill(expected.begin() + 16, expected.begin() + 24, 944.0);
  std::fill(expected.begin() + 24, expected.begin() + 32, 920.0);
  expected[2] = 968.0;
  expected[3] = 976.0;
  expected[62] = 1056.0;
  expected[63] = 1040.0;
  EXPECT_EQ(cc::zfp_decode(w.view()), expected);
}

// A quantized block (mode 124 + k, then per value its zigzagged index's
// quotient by 2^k in unary and its low k bits), built by hand, decodes to
// index times the step, twice the stream's bound. Eight values of a tail
// block, k = 2.
TEST(Zfp, HandBuiltRiceBlockDecodesToPinnedValues) {
  const std::uint64_t zigzag[] = {0, 1, 2, 3, 4, 7, 8, 13};
  constexpr unsigned kK = 2;
  cu::BitWriter bits;
  for (const std::uint64_t z : zigzag) {
    bits.write_unary(static_cast<std::uint32_t>(z >> kK));
    bits.write_bits(z, kK);
  }
  cu::ByteWriter meta;
  meta.put(static_cast<std::uint8_t>(124 + kK));
  cu::ByteWriter w;
  w.put_varint(std::size(zigzag));
  w.put(0.25);  // the bound: a step of 0.5
  w.put_vector(meta.bytes());
  w.put_vector(bits.finish());
  const std::vector<double> expected = {0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0, -3.5};
  EXPECT_EQ(cc::zfp_decode(w.view()), expected);
}

// --------------------------------------------------------------- Registry --

TEST(Registry, AllNamesConstruct) {
  for (const auto& name : cc::codec_names()) {
    auto codec = cc::make_codec(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(cc::make_codec("gzip"), canopus::Error);
}

TEST(Registry, ExpectedCodecsPresent) {
  const auto names = cc::codec_names();
  for (const char* expected : {"zfp", "sz", "fpc", "lzss", "huffman", "raw"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// Parameterized property sweep: every codec round-trips within its contract
// on a variety of signals.
class CodecProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(CodecProperty, RoundTripWithinBound) {
  const auto& [name, n] = GetParam();
  auto codec = cc::make_codec(name);
  const double eb = 1e-5;
  const auto xs = smooth_signal(n, n + 17);
  const auto enc = codec->encode(xs, eb);
  const auto dec = codec->decode(enc);
  ASSERT_EQ(dec.size(), xs.size());
  if (codec->lossless()) {
    EXPECT_EQ(dec, xs);
  } else {
    EXPECT_LE(cu::max_abs_error(xs, dec), eb);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsVariousSizes, CodecProperty,
    ::testing::Combine(::testing::Values("zfp", "sz", "fpc", "lzss", "huffman",
                                         "raw"),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{64}, std::size_t{1000},
                                         std::size_t{4097})),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             std::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------------------ garbage fuzz --

// Deterministic fuzz: every decoder must reject or survive arbitrary bytes
// without crashing or allocating absurd amounts (regression for the
// header-trusting allocations found during development).
TEST(Fuzz, DecodersSurviveGarbage) {
  cu::Rng rng(0xFADE);
  for (int trial = 0; trial < 300; ++trial) {
    cu::Bytes garbage(100 + rng.uniform_index(4000));
    for (auto& b : garbage) b = static_cast<std::byte>(rng.uniform_index(256));
    for (const char* name : {"zfp", "sz", "fpc", "lzss", "huffman"}) {
      const auto codec = cc::make_codec(name);
      try {
        const auto out = codec->decode(garbage);
        // Decoding garbage "successfully" is fine, but the output must be
        // structurally bounded by the input.
        EXPECT_LT(out.size(), (garbage.size() + 64) * 600) << name;
      } catch (const canopus::Error&) {
        // expected for most inputs
      }
    }
  }
}

TEST(Fuzz, TruncatedValidStreamsThrowNotCrash) {
  const auto xs = smooth_signal(3000);
  for (const char* name : {"zfp", "sz", "fpc", "lzss", "huffman"}) {
    const auto codec = cc::make_codec(name);
    const auto enc = codec->encode(xs, 1e-4);
    for (std::size_t cut : {std::size_t{1}, enc.size() / 4, enc.size() / 2,
                            enc.size() - 1}) {
      cu::Bytes truncated(enc.begin(), enc.begin() + static_cast<long>(cut));
      try {
        const auto out = codec->decode(truncated);
        EXPECT_LE(out.size(), xs.size() + 64) << name << " cut=" << cut;
      } catch (const canopus::Error&) {
        // expected
      }
    }
  }
}

TEST(Fuzz, BitFlippedStreamsThrowOrStayBounded) {
  const auto xs = smooth_signal(2000);
  cu::Rng rng(0xBEEF);
  for (const char* name : {"zfp", "sz", "fpc"}) {
    const auto codec = cc::make_codec(name);
    auto enc = codec->encode(xs, 1e-5);
    for (int flip = 0; flip < 50; ++flip) {
      auto corrupted = enc;
      const auto pos = rng.uniform_index(corrupted.size());
      corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniform_index(8));
      try {
        const auto out = codec->decode(corrupted);
        EXPECT_LE(out.size(), xs.size() * 2 + 64) << name;
      } catch (const canopus::Error&) {
        // expected
      }
    }
  }
}

// A lifted block's planes must lie where the encoder writes them: the lowest
// in 0..top_plane, the top at most 60 (coefficients stay below 2^61). Modes
// 63..123, which a retired layout spent on untransformed planes, lie above
// every plane a lifted block may stop at. Anything else is corruption, not a
// shorter coding.
TEST(Fuzz, ZfpStoredPlaneOutsideEncoderRangeThrows) {
  // One 64-value block: metadata {mode, emax, top_plane}, then a payload of
  // zero bits (every plane's group test says "no more ones").
  const std::array<std::uint64_t, 8> zero_bits{};
  auto stream = [&](int mode, int top_plane) {
    cu::ByteWriter meta;
    meta.put(static_cast<std::uint8_t>(mode));
    meta.put(std::int16_t{4});
    meta.put(static_cast<std::int8_t>(top_plane));
    cu::ByteWriter w;
    w.put_varint(64);
    w.put(1e-3);
    w.put_vector(meta.bytes());
    w.put_varint(sizeof zero_bits);
    w.put_bytes(zero_bits.data(), sizeof zero_bits);
    return w.take();
  };
  const auto lifted = [](int plane) { return 2 + plane; };
  for (const auto& [mode, top_plane] : {std::pair{lifted(20), 20},
                                        {lifted(0), 20},
                                        {lifted(60), 60}}) {
    EXPECT_NO_THROW(cc::zfp_decode(stream(mode, top_plane)))
        << "mode " << mode << " top " << top_plane;
  }
  const std::pair<int, int> corrupt[] = {
      {lifted(21), 20}, {lifted(40), 20}, {lifted(0), 61}, {lifted(63), 63},
      {63, 20},         {63, 60},         {83, 20},        {123, 60}};
  for (const auto& [mode, top_plane] : corrupt) {
    try {
      cc::zfp_decode(stream(mode, top_plane));
      ADD_FAILURE() << "mode " << mode << " top " << top_plane << " decoded";
    } catch (const canopus::Error& e) {
      EXPECT_NE(std::string(e.what()).find("zfp stream corrupt (plane)"),
                std::string::npos)
          << e.what();
    }
  }
}

// A quantized block must lie where the encoder writes it: k at most 53
// (modes 124..177), every zigzagged index at most 2^53 (|q| <= 2^52), and a
// step of twice a bound that is finite and > 0. Each of those the decoder
// checks; a stream past one is corrupt.
TEST(Fuzz, ZfpRiceBlockOutsideEncoderRangeThrows) {
  struct Row {
    int mode;
    double bound;
    std::uint32_t quotient;  // every one of the block's 8 indices
    std::uint64_t low_bits;
    const char* error;  // nullptr: decodes
  };
  const Row rows[] = {
      {124 + 53, 0.5, 1, 0, nullptr},  // index 2^53: q = 2^52
      {124 + 0, 1e-3, 5, 0, nullptr},
      {124 + 54, 0.5, 0, 0, "zfp stream corrupt (rice parameter)"},
      {255, 0.5, 0, 0, "zfp stream corrupt (rice parameter)"},
      {124 + 50, 0.5, 9, 0, "zfp stream corrupt (rice index)"},
      {124 + 50, 0.5, 8, 1, "zfp stream corrupt (rice index)"},  // 2^53 + 1
      {124 + 53, 0.5, 2, 0, "zfp stream corrupt (rice index)"},
      {124 + 3, 0.0, 1, 0, "zfp stream corrupt (rice bound)"},
      {124 + 3, -1.0, 1, 0, "zfp stream corrupt (rice bound)"},
      {124 + 3, std::numeric_limits<double>::quiet_NaN(), 1, 0,
       "zfp stream corrupt (rice bound)"},
      {124 + 3, std::numeric_limits<double>::infinity(), 1, 0,
       "zfp stream corrupt (rice bound)"},
      {124 + 3, 1e308, 1, 0, "zfp stream corrupt (rice bound)"},  // step inf
  };
  for (const Row& row : rows) {
    const unsigned k = static_cast<unsigned>(std::min(row.mode - 124, 64));
    cu::BitWriter bits;
    for (int i = 0; i < 8; ++i) {
      bits.write_unary(row.quotient);
      bits.write_bits(row.low_bits, k);
    }
    cu::ByteWriter w;
    w.put_varint(8);
    w.put(row.bound);
    w.put_vector(cu::Bytes{static_cast<std::byte>(row.mode)});
    w.put_vector(bits.finish());
    const std::string context = "mode " + std::to_string(row.mode) +
                                " bound " + std::to_string(row.bound) +
                                " quotient " + std::to_string(row.quotient);
    if (!row.error) {
      const auto decoded = cc::zfp_decode(w.view());
      ASSERT_EQ(decoded.size(), 8u) << context;
      EXPECT_TRUE(std::isfinite(decoded[0])) << context;
      continue;
    }
    try {
      cc::zfp_decode(w.view());
      ADD_FAILURE() << context << " decoded";
    } catch (const canopus::Error& e) {
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << context << ": " << e.what();
    }
  }
}

// The largest coefficients a stream may carry (top plane 60, every bit set,
// signs alternating) must decode without overflowing the inverse lifting;
// the largest indices a quantized block may carry (2^53 and 2^53 - 1 at
// k = 53) decode to +-2^52 steps exactly.
TEST(Fuzz, ZfpExtremeCoefficientsDecodeDefined) {
  constexpr std::size_t kBlock = cc::detail::kZfpBlock;
  cu::BitWriter bits;
  cu::ByteWriter meta;
  for (int p = 60; p >= 0; --p) {  // lifted down to plane 0
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (p == 60) bits.write_bit(true);   // group test: a 1 remains
      bits.write_bit(true);                // coefficient i's bit
      if (p == 60) bits.write_bit(i % 2);  // its sign, after its first 1
    }
  }
  meta.put(std::uint8_t{2});
  meta.put(std::int16_t{0});
  meta.put(std::int8_t{60});
  for (std::size_t i = 0; i < kBlock; ++i) {  // quantized, k = 53
    const std::uint64_t index = (std::uint64_t{1} << 53) - i % 2;
    bits.write_unary(static_cast<std::uint32_t>(index >> 53));
    bits.write_bits(index, 53);
  }
  meta.put(std::uint8_t{124 + 53});
  cu::ByteWriter w;
  w.put_varint(2 * kBlock);
  w.put(0.5);  // a step of 1
  w.put_vector(meta.bytes());
  w.put_vector(bits.finish());
  const auto decoded = cc::zfp_decode(w.take());
  ASSERT_EQ(decoded.size(), 2 * kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    EXPECT_TRUE(std::isfinite(decoded[i])) << i;
  }
  for (std::size_t i = 0; i < kBlock; ++i) {
    EXPECT_EQ(decoded[kBlock + i], i % 2 ? -0x1p52 : 0x1p52) << i;
  }
}

// A declared length near 2^64 must fail its bound check, not wrap past it:
// zfp value counts whose block count rounds up past 2^64, and string lengths
// that wrap the reader's position.
TEST(Fuzz, DeclaredLengthsNearTwoToThe64Throw) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t count : {kMax, kMax - 62}) {
    cu::ByteWriter w;
    w.put_varint(count);
    w.put(1e-3);
    w.put_vector(cu::Bytes(4));  // four blocks' worth of mode bytes
    w.put_vector(cu::Bytes{});
    EXPECT_THROW(cc::zfp_decode(w.view()), canopus::Error) << count;
  }
  for (const std::uint64_t length : {kMax, kMax - 5}) {
    cu::ByteWriter w;
    w.put_varint(length);
    w.put_bytes("abcd", 4);
    cu::ByteReader in(w.view());
    EXPECT_THROW(in.get_string(), canopus::Error) << length;
  }
}

// --------------------------------------------------------- zfp lifting --

// The integer Haar lifting is exactly invertible: the decoder's inverse
// gives back the encoder's fixed-point block bit for bit.
TEST(ZfpLifting, InverseUndoesForwardExactly) {
  cu::Rng rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::int64_t, cc::detail::kZfpBlock> block;
    for (auto& v : block) {
      // Quantized significands: well inside the lifting's headroom.
      v = static_cast<std::int64_t>(rng.next_u64() >> 20) - (1ll << 43);
    }
    auto coeffs = block;
    cc::detail::forward_transform64(coeffs.data());
    EXPECT_NE(coeffs, block) << "trial " << trial;
    cc::detail::inverse_transform64(coeffs.data());
    EXPECT_EQ(coeffs, block) << "trial " << trial;  // exact round-trip
  }
}

// ----------------------------------------------------- simd equivalence --

// The dequantization pass is speed-only: forced-scalar and
// runtime-dispatched runs must agree bit for bit.
TEST(Simd, SzDequantMatchesScalarBitwise) {
  cu::Rng rng(92);
  // Odd length exercises the vector tail; codes span the full emitted range
  // (|q| <= 2^20 zigzagged).
  const std::size_t n = 1013;
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.next_u64() % ((1u << 21) + 1);
  std::vector<double> scalar_out(n), simd_out(n);
  {
    cu::simd::ScopedForceScalar force;
    cc::detail::dequant_codes(codes.data(), n, 1e-4, scalar_out.data());
  }
  cc::detail::dequant_codes(codes.data(), n, 1e-4, simd_out.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(scalar_out[i], simd_out[i]) << "code " << codes[i];
  }
}

TEST(Simd, SzCodecRoundTripMatchesScalarBitwise) {
  cu::Rng rng(93);
  std::vector<double> values(4096);
  double acc = 0.0;
  for (auto& v : values) {
    acc += rng.uniform(-1.0, 1.0);
    v = acc;  // random walk: mostly predictable, occasional big steps
  }
  const double eb = 1e-6;
  cu::Bytes scalar_stream;
  std::vector<double> scalar_decoded;
  {
    cu::simd::ScopedForceScalar force;
    scalar_stream = cc::sz_encode(values, eb);
    scalar_decoded = cc::sz_decode(scalar_stream);
  }
  const auto simd_stream = cc::sz_encode(values, eb);
  EXPECT_EQ(scalar_stream, simd_stream);
  const auto simd_decoded = cc::sz_decode(simd_stream);
  ASSERT_EQ(scalar_decoded.size(), simd_decoded.size());
  for (std::size_t i = 0; i < simd_decoded.size(); ++i) {
    EXPECT_EQ(scalar_decoded[i], simd_decoded[i]) << "value " << i;
  }
}
