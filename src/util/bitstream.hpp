#pragma once
// Bit-granular I/O used by the entropy coders and the ZFP-like codec's bit
// planes and Rice codes.
//
// Bits are packed LSB-first within each 64-bit word; the writer flushes whole
// words into a byte vector. The reader mirrors the layout and throws on
// overrun.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/assert.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::util {

class BitWriter {
 public:
  /// Appends the low `nbits` bits of `value` (0 <= nbits <= 64).
  void write_bits(std::uint64_t value, unsigned nbits) {
    CANOPUS_ASSERT(nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) value &= (1ull << nbits) - 1;
    acc_ |= value << fill_;
    if (fill_ + nbits >= 64) {
      words_.push_back(acc_);
      const unsigned consumed = 64 - fill_;
      acc_ = (consumed < 64) ? value >> consumed : 0;
      fill_ = fill_ + nbits - 64;
    } else {
      fill_ += nbits;
    }
  }

  void write_bit(bool b) { write_bits(b ? 1u : 0u, 1); }

  /// Bits written so far.
  std::size_t bit_count() const { return words_.size() * 64 + fill_; }

  /// Unary code: `n` zero bits, then a 1.
  void write_unary(std::uint32_t n) {
    while (n >= 32) {
      write_bits(0, 32);
      n -= 32;
    }
    write_bits(1ull << n, n + 1);
  }

  /// Finalizes and returns the packed bytes (pads the tail word with zeros).
  Bytes finish() {
    if (fill_ > 0) {
      words_.push_back(acc_);
      acc_ = 0;
      fill_ = 0;
    }
    Bytes out(words_.size() * sizeof(std::uint64_t));
    // An empty stream has no backing word storage; memcpy rejects null.
    if (!out.empty()) std::memcpy(out.data(), words_.data(), out.size());
    words_.clear();
    return out;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // bits currently in acc_
};

class BitReader {
 public:
  explicit BitReader(BytesView bytes) : bytes_(bytes) {}

  std::uint64_t read_bits(unsigned nbits) {
    CANOPUS_ASSERT(nbits <= 64);
    if (nbits < fill_) {  // all buffered; nbits < 64
      const std::uint64_t out = acc_ & ((1ull << nbits) - 1);
      acc_ >>= nbits;
      fill_ -= nbits;
      return out;
    }
    if (nbits == 0) return 0;
    std::uint64_t out = 0;
    unsigned got = 0;
    while (got < nbits) {
      if (fill_ == 0) refill();
      const unsigned take = std::min(nbits - got, fill_);
      const std::uint64_t mask = (take < 64) ? ((1ull << take) - 1) : ~0ull;
      out |= (acc_ & mask) << got;
      acc_ = (take < 64) ? acc_ >> take : 0;
      fill_ -= take;
      got += take;
    }
    return out;
  }

  bool read_bit() {
    if (fill_ == 0) refill();
    const bool b = acc_ & 1u;
    acc_ >>= 1;
    --fill_;
    return b;
  }

  /// The next `nbits` (<= 32) bits without consuming them, first bit
  /// lowest. Bits past the end of the stream read as zero; only consuming
  /// them throws.
  std::uint64_t peek_bits(unsigned nbits) const {
    CANOPUS_ASSERT(nbits <= 32);
    const std::uint64_t mask = (1ull << nbits) - 1;
    if (fill_ >= nbits) return acc_ & mask;
    std::uint64_t next = 0;
    const std::size_t byte_off = word_index_ * sizeof(std::uint64_t);
    if (byte_off < bytes_.size()) {
      std::memcpy(&next, bytes_.data() + byte_off,
                  std::min(sizeof(std::uint64_t), bytes_.size() - byte_off));
    }
    return (acc_ | (next << fill_)) & mask;
  }

  /// Consumes `nbits` bits (typically ones just peeked).
  void skip_bits(unsigned nbits) {
    if (nbits < fill_) {
      acc_ >>= nbits;
      fill_ -= nbits;
    } else {
      read_bits(nbits);
    }
  }

  /// Reads write_unary's code: counts the zeros before the next 1 bit a
  /// buffered word at a time, and consumes them and the 1.
  std::uint32_t read_unary() {
    std::uint32_t n = 0;
    for (;;) {
      if (fill_ == 0) refill();
      if (acc_ != 0) {  // bits above fill_ are zero, so the 1 is buffered
        const auto zeros = static_cast<unsigned>(std::countr_zero(acc_));
        n += zeros;
        CANOPUS_CHECK(n < (1u << 24), "unary code runaway");
        acc_ = zeros < 63 ? acc_ >> (zeros + 1) : 0;
        fill_ -= zeros + 1;
        return n;
      }
      n += fill_;
      fill_ = 0;
      CANOPUS_CHECK(n < (1u << 24), "unary code runaway");
    }
  }

 private:
  void refill() {
    const std::size_t byte_off = word_index_ * sizeof(std::uint64_t);
    CANOPUS_CHECK(byte_off < bytes_.size(), "bit stream exhausted");
    const std::size_t avail = std::min(sizeof(std::uint64_t), bytes_.size() - byte_off);
    acc_ = 0;
    std::memcpy(&acc_, bytes_.data() + byte_off, avail);
    fill_ = 64;  // trailing pad bits read as zero, callers track logical length
    ++word_index_;
  }

  BytesView bytes_;
  std::uint64_t acc_ = 0;  // the next fill_ bits, lowest first; zeros above
  unsigned fill_ = 0;
  std::size_t word_index_ = 0;
};

}  // namespace canopus::util
