// Unit tests for the util substrate: byte/bit streams, RNG, stats, thread
// pool, tables, CLI parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>

#include "util/bitstream.hpp"
#include "util/byte_buffer.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cu = canopus::util;

TEST(ByteBuffer, PrimitiveRoundTrip) {
  cu::ByteWriter w;
  w.put<std::uint32_t>(0xDEADBEEF);
  w.put<double>(3.25);
  w.put<std::int8_t>(-5);
  cu::ByteReader r(w.view());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::int8_t>(), -5);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, VarintRoundTrip) {
  cu::ByteWriter w;
  const std::uint64_t cases[] = {0, 1, 127, 128, 300, 1ull << 32, ~0ull};
  for (auto v : cases) w.put_varint(v);
  cu::ByteReader r(w.view());
  for (auto v : cases) EXPECT_EQ(r.get_varint(), v);
}

TEST(ByteBuffer, VarintCompactness) {
  cu::ByteWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(300);
  EXPECT_EQ(w.size(), 3u);
}

TEST(ByteBuffer, StringAndVectorRoundTrip) {
  cu::ByteWriter w;
  w.put_string("dpot");
  w.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  w.put_string("");
  cu::ByteReader r(w.view());
  EXPECT_EQ(r.get_string(), "dpot");
  EXPECT_EQ(r.get_vector<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.get_string(), "");
}

TEST(ByteBuffer, TruncationThrows) {
  cu::ByteWriter w;
  w.put<std::uint16_t>(7);
  cu::ByteReader r(w.view());
  EXPECT_THROW(r.get<std::uint64_t>(), canopus::Error);
}

TEST(ByteBuffer, CorruptVectorLengthThrows) {
  cu::ByteWriter w;
  w.put_varint(1'000'000);  // claims a million doubles, provides none
  cu::ByteReader r(w.view());
  EXPECT_THROW(r.get_vector<double>(), canopus::Error);
}

TEST(ByteBuffer, PatchOverwritesInPlace) {
  cu::ByteWriter w;
  w.put<std::uint64_t>(0);
  w.put<std::uint8_t>(9);
  w.patch<std::uint64_t>(0, 42);
  cu::ByteReader r(w.view());
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
}

TEST(BitStream, SingleBits) {
  cu::BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) w.write_bit(b);
  const auto bytes = w.finish();
  cu::BitReader r(bytes);
  for (bool b : pattern) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitStream, MultiBitFields) {
  cu::BitWriter w;
  w.write_bits(0x3, 2);
  w.write_bits(0x1FF, 9);
  w.write_bits(0xFFFFFFFFFFFFFFFFull, 64);
  w.write_bits(0, 5);
  w.write_bits(0x15, 5);
  const auto bytes = w.finish();
  cu::BitReader r(bytes);
  EXPECT_EQ(r.read_bits(2), 0x3u);
  EXPECT_EQ(r.read_bits(9), 0x1FFu);
  EXPECT_EQ(r.read_bits(64), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.read_bits(5), 0u);
  EXPECT_EQ(r.read_bits(5), 0x15u);
}

TEST(BitStream, CrossWordBoundary) {
  cu::BitWriter w;
  for (int i = 0; i < 10; ++i) w.write_bits(static_cast<std::uint64_t>(i), 13);
  const auto bytes = w.finish();
  cu::BitReader r(bytes);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.read_bits(13), static_cast<std::uint64_t>(i));
  }
}

// peek_bits shows what the next reads will return without consuming it,
// with zeros past the end; only consuming past the end throws.
TEST(BitStream, PeekThenSkip) {
  cu::BitWriter w;
  for (int i = 0; i < 40; ++i) w.write_bits(static_cast<std::uint64_t>(i), 7);
  const auto bytes = w.finish();  // 280 bits in five words
  cu::BitReader r(bytes);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t next = i + 1 < 40 ? (i + 1) & 0xF : 0;
    EXPECT_EQ(r.peek_bits(11), i | (next << 7)) << "field " << i;
    EXPECT_EQ(r.peek_bits(7), i);
    r.skip_bits(7);
  }
  EXPECT_EQ(r.peek_bits(32), 0u);
  r.skip_bits(32);
  EXPECT_EQ(r.peek_bits(32), 0u);  // 8 pad bits, then past the end
  EXPECT_THROW(r.skip_bits(16), canopus::Error);
}

TEST(BitStream, PeekAfterAWholeWordRead) {
  cu::BitWriter w;
  w.write_bits(~0ull, 64);
  w.write_bits(0x15, 5);
  const auto bytes = w.finish();
  cu::BitReader r(bytes);
  EXPECT_EQ(r.read_bits(64), ~0ull);
  EXPECT_EQ(r.peek_bits(8), 0x15u);
  r.skip_bits(5);
  EXPECT_EQ(r.read_bits(5), 0u);
}

TEST(BitStream, UnaryCodes) {
  cu::BitWriter w;
  for (std::uint32_t n : {0u, 1u, 5u, 40u, 100u}) w.write_unary(n);
  const auto bytes = w.finish();
  cu::BitReader r(bytes);
  for (std::uint32_t n : {0u, 1u, 5u, 40u, 100u}) EXPECT_EQ(r.read_unary(), n);
}

// read_unary counts a run a buffered word at a time: runs that end on,
// just before and just past a word boundary, and ones spanning several
// words, from every offset into a word, interleaved with plain fields.
TEST(BitStream, UnaryRunsAcrossWordBoundaries) {
  const std::uint32_t runs[] = {0, 63, 64, 65, 200};
  for (const unsigned offset : {0u, 1u, 37u, 63u}) {
    cu::BitWriter w;
    w.write_bits(~0ull, offset);
    for (const std::uint32_t n : runs) {
      w.write_unary(n);
      w.write_bits(0x5, 3);
    }
    const auto bytes = w.finish();
    cu::BitReader r(bytes);
    EXPECT_EQ(r.read_bits(offset), offset ? ~0ull >> (64 - offset) : 0u);
    for (const std::uint32_t n : runs) {
      EXPECT_EQ(r.read_unary(), n) << "offset " << offset;
      EXPECT_EQ(r.read_bits(3), 0x5u) << "offset " << offset << " run " << n;
    }
  }
}

// A run of zeros that reaches the end of the stream has no terminating 1.
TEST(BitStream, UnaryRunPastTheEndThrows) {
  cu::BitWriter w;
  w.write_bits(0x3, 2);
  w.write_bits(0, 64);
  w.write_bits(0, 36);
  const auto bytes = w.finish();  // two words, all zero after the first 2 bits
  cu::BitReader r(bytes);
  EXPECT_EQ(r.read_unary(), 0u);
  EXPECT_EQ(r.read_unary(), 0u);
  try {
    r.read_unary();
    ADD_FAILURE() << "a run past the end decoded";
  } catch (const canopus::Error& e) {
    EXPECT_NE(std::string(e.what()).find("bit stream exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexUnbiasedEnough) {
  cu::Rng rng(9);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 5.0, n * 0.02);
  }
}

TEST(Rng, NormalMoments) {
  cu::Rng rng(11);
  cu::RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Stats, RunningStatsBasics) {
  cu::RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(st.min(), 2.0);
  EXPECT_EQ(st.max(), 9.0);
}

TEST(Stats, RmseAndMaxError) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.5, 2.0};
  EXPECT_NEAR(cu::rmse(a, b), std::sqrt((0.25 + 1.0) / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(cu::max_abs_error(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cu::rmse(a, a), 0.0);
}

TEST(Stats, PsnrIdenticalIsInfinite) {
  const std::vector<double> a{0.0, 1.0, 2.0};
  EXPECT_TRUE(std::isinf(cu::psnr(a, a)));
}

TEST(Stats, SmoothSignalHasLowerTotalVariation) {
  std::vector<double> smooth(256), rough(256);
  cu::Rng rng(13);
  for (std::size_t i = 0; i < smooth.size(); ++i) {
    smooth[i] = std::sin(static_cast<double>(i) * 0.05);
    rough[i] = rng.uniform(-1.0, 1.0);
  }
  EXPECT_LT(cu::total_variation(smooth), cu::total_variation(rough));
  EXPECT_GT(cu::lag1_autocorrelation(smooth), 0.9);
  EXPECT_LT(std::abs(cu::lag1_autocorrelation(rough)), 0.2);
}

TEST(Stats, HistogramCoversRange) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(static_cast<double>(i));
  const auto h = cu::histogram(xs, 10);
  EXPECT_EQ(h.bins.size(), 10u);
  std::size_t total = 0;
  for (auto b : h.bins) total += b;
  EXPECT_EQ(total, xs.size());
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 99.0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  cu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesWorkerException) {
  cu::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw canopus::Error("boom");
                        }),
      canopus::Error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  cu::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(PhaseTimer, AccumulatesAndOrders) {
  cu::PhaseTimer t;
  t.add("io", 1.0);
  t.add("decompress", 0.5);
  t.add("io", 0.25);
  EXPECT_DOUBLE_EQ(t.get("io"), 1.25);
  EXPECT_DOUBLE_EQ(t.get("decompress"), 0.5);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 1.75);
  ASSERT_EQ(t.phases().size(), 2u);
  EXPECT_EQ(t.phases()[0], "io");
}

TEST(Table, PrintAndCsv) {
  cu::Table t({"ratio", "time"});
  t.add_row({"2", cu::Table::num(1.5, 2)});
  t.add_row({"4", cu::Table::num(0.75, 2)});
  std::ostringstream pretty, csv;
  t.print(pretty, "demo");
  t.write_csv(csv);
  EXPECT_NE(pretty.str().find("demo"), std::string::npos);
  EXPECT_NE(pretty.str().find("1.50"), std::string::npos);
  EXPECT_EQ(csv.str(), "ratio,time\n2,1.50\n4,0.75\n");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--levels=4", "--verbose", "input.bp",
                        "--eps=0.5"};
  cu::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("levels", 0), 4);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.bp");
}

// ----------------------------------------------------- simd dispatch --

TEST(Simd, ForceScalarScopesNestAndRestore) {
  const bool was = cu::simd::enabled();
  {
    cu::simd::ScopedForceScalar outer;
    EXPECT_FALSE(cu::simd::enabled());
    EXPECT_EQ(cu::simd::active_isa(), cu::simd::Isa::kScalar);
    {
      cu::simd::ScopedForceScalar inner;
      EXPECT_FALSE(cu::simd::enabled());
    }
    EXPECT_FALSE(cu::simd::enabled());  // still inside the outer scope
  }
  EXPECT_EQ(cu::simd::enabled(), was);
}

TEST(Simd, Crc32MatchesScalarAcrossSizesAndSplits) {
  // The slice-by-8 path kicks in at 8-byte granularity; every length and
  // split point must agree with the bytewise table walk exactly.
  cu::Rng rng(7);
  std::vector<std::byte> buf(4096 + 7);
  for (auto& b : buf) b = static_cast<std::byte>(rng.uniform_index(256));
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 512u, 4096u, 4103u}) {
    std::uint32_t scalar_crc = 0;
    {
      cu::simd::ScopedForceScalar force;
      cu::Crc32 c;
      c.update(buf.data(), len);
      scalar_crc = c.value();
    }
    cu::Crc32 fast;
    fast.update(buf.data(), len);
    EXPECT_EQ(fast.value(), scalar_crc) << "len " << len;

    // Incremental updates with a misaligned split agree too.
    if (len > 3) {
      cu::Crc32 split;
      split.update(buf.data(), 3);
      split.update(buf.data() + 3, len - 3);
      EXPECT_EQ(split.value(), scalar_crc) << "len " << len;
    }
  }
}
