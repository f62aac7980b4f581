#pragma once
// Growable byte buffer with primitive serialization helpers.
//
// ByteWriter appends little-endian primitives, length-prefixed strings and
// LEB128 varints to an owned std::vector<std::byte>. ByteReader consumes the
// same encodings from a non-owning span and throws canopus::Error on
// truncation, making it safe to feed untrusted/corrupt containers to the BP
// reader.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace canopus::util {

using Bytes = std::vector<std::byte>;
using BytesView = std::span<const std::byte>;

/// Appends primitives to an owned byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// Appends the raw object representation of a trivially copyable value.
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  void put_bytes(BytesView bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  void put_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Unsigned LEB128 variable-length integer.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::byte>(v));
  }

  /// Varint length prefix followed by the UTF-8 bytes.
  void put_string(std::string_view s) {
    put_varint(s.size());
    put_bytes(s.data(), s.size());
  }

  /// Varint count followed by packed elements.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_varint(v.size());
    put_bytes(v.data(), v.size() * sizeof(T));
  }

  std::size_t size() const { return buf_.size(); }
  BytesView view() const { return buf_; }
  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

  /// Overwrites sizeof(T) bytes at an absolute offset (for patching headers).
  template <typename T>
  void patch(std::size_t offset, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    CANOPUS_ASSERT(offset + sizeof(T) <= buf_.size());
    std::memcpy(buf_.data() + offset, &value, sizeof(T));
  }

 private:
  Bytes buf_;
};

/// Consumes primitives from a non-owning byte view; throws Error on underrun.
class ByteReader {
 public:
  explicit ByteReader(BytesView view) : view_(view) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    CANOPUS_CHECK(pos_ + sizeof(T) <= view_.size(), "byte stream truncated");
    T value;
    std::memcpy(&value, view_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  BytesView get_bytes(std::size_t n) {
    // Against what remains: pos_ + n wraps for a length near 2^64.
    CANOPUS_CHECK(n <= view_.size() - pos_, "byte stream truncated");
    auto out = view_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      CANOPUS_CHECK(pos_ < view_.size(), "varint truncated");
      CANOPUS_CHECK(shift < 64, "varint overlong");
      const auto b = static_cast<std::uint8_t>(view_[pos_++]);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  std::string get_string() {
    const auto n = get_varint();
    auto raw = get_bytes(n);
    return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get_varint();
    CANOPUS_CHECK(n <= (view_.size() - pos_) / sizeof(T), "vector length corrupt");
    std::vector<T> v(n);
    auto raw = get_bytes(n * sizeof(T));
    if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
    return v;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return view_.size() - pos_; }
  bool exhausted() const { return pos_ == view_.size(); }

 private:
  BytesView view_;
  std::size_t pos_ = 0;
};

/// Reinterprets a typed vector as raw bytes (no copy).
template <typename T>
BytesView as_bytes_view(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return BytesView(reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T));
}

/// Copies a raw byte view into a typed vector; size must divide evenly.
template <typename T>
std::vector<T> from_bytes(BytesView bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  CANOPUS_CHECK(bytes.size() % sizeof(T) == 0, "byte size not a multiple of element size");
  std::vector<T> v(bytes.size() / sizeof(T));
  // An empty view may carry a null data() pointer, which memcpy must not see.
  if (!bytes.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

}  // namespace canopus::util
