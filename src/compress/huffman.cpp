#include "compress/huffman.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <queue>

#include "util/assert.hpp"
#include "util/bitstream.hpp"

namespace canopus::compress {

namespace {

constexpr int kSymbols = 256;
constexpr unsigned kMaxCodeLen = 30;

/// Computes Huffman code lengths for the given counts (0 for unused symbols).
std::array<std::uint8_t, kSymbols> code_lengths(std::array<std::uint64_t, kSymbols> counts) {
  struct Node {
    std::uint64_t weight;
    int index;  // < kSymbols: leaf; otherwise internal
  };
  struct Cmp {
    bool operator()(const Node& a, const Node& b) const { return a.weight > b.weight; }
  };

  for (;;) {
    std::array<std::uint8_t, kSymbols> lengths{};
    std::vector<std::pair<int, int>> children;  // internal node -> (left, right)
    std::priority_queue<Node, std::vector<Node>, Cmp> heap;
    int live_symbols = 0;
    for (int s = 0; s < kSymbols; ++s) {
      if (counts[s] > 0) {
        heap.push({counts[s], s});
        ++live_symbols;
      }
    }
    if (live_symbols == 0) return lengths;
    if (live_symbols == 1) {
      lengths[static_cast<std::size_t>(heap.top().index)] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      Node a = heap.top();
      heap.pop();
      Node b = heap.top();
      heap.pop();
      const int idx = kSymbols + static_cast<int>(children.size());
      children.emplace_back(a.index, b.index);
      heap.push({a.weight + b.weight, idx});
    }
    // Depth-first assign depths.
    std::vector<std::pair<int, std::uint8_t>> stack{{heap.top().index, 0}};
    unsigned max_len = 0;
    while (!stack.empty()) {
      auto [idx, depth] = stack.back();
      stack.pop_back();
      if (idx < kSymbols) {
        lengths[static_cast<std::size_t>(idx)] = depth;
        max_len = std::max<unsigned>(max_len, depth);
      } else {
        const auto& [l, r] = children[static_cast<std::size_t>(idx - kSymbols)];
        stack.push_back({l, static_cast<std::uint8_t>(depth + 1)});
        stack.push_back({r, static_cast<std::uint8_t>(depth + 1)});
      }
    }
    if (max_len <= kMaxCodeLen) return lengths;
    // Flatten the distribution and retry; converges because counts shrink
    // toward uniform.
    for (auto& c : counts) {
      if (c > 0) c = c / 2 + 1;
    }
  }
}

struct CanonicalCodes {
  std::array<std::uint32_t, kSymbols> code{};
  std::array<std::uint8_t, kSymbols> len{};
};

/// Assigns canonical codes: symbols sorted by (length, value).
CanonicalCodes canonicalize(const std::array<std::uint8_t, kSymbols>& lengths) {
  CanonicalCodes cc;
  cc.len = lengths;
  std::vector<int> order;
  for (int s = 0; s < kSymbols; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto la = lengths[static_cast<std::size_t>(a)];
    const auto lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::uint32_t code = 0;
  std::uint8_t prev_len = 0;
  for (int s : order) {
    const auto l = lengths[static_cast<std::size_t>(s)];
    code <<= (l - prev_len);
    cc.code[static_cast<std::size_t>(s)] = code;
    ++code;
    prev_len = l;
  }
  return cc;
}

/// `code`'s low `len` bits in reverse order. Canonical codes are MSB-first;
/// the LSB-first bit stream replays a reversed code in MSB order.
std::uint32_t reversed(std::uint32_t code, unsigned len) {
  std::uint32_t r = 0;
  for (unsigned i = 0; i < len; ++i) r |= ((code >> i) & 1u) << (len - 1 - i);
  return r;
}

/// Codes of up to kFastBits bits decode with one table lookup on the next
/// kFastBits stream bits; longer codes take the canonical bit-by-bit walk.
constexpr unsigned kFastBits = 11;

struct FastEntry {
  std::uint8_t symbol = 0;
  std::uint8_t len = 0;  // 0: no code of <= kFastBits bits is a prefix
};

}  // namespace

util::Bytes huffman_encode(util::BytesView input) {
  std::array<std::uint64_t, kSymbols> counts{};
  for (std::byte b : input) ++counts[static_cast<std::size_t>(b)];
  const auto lengths = code_lengths(counts);
  const auto cc = canonicalize(lengths);

  util::ByteWriter out;
  out.put_varint(input.size());
  // Table: (symbol, length) pairs for used symbols.
  int used = 0;
  for (auto l : lengths) {
    if (l > 0) ++used;
  }
  out.put_varint(static_cast<std::uint64_t>(used));
  std::array<std::uint32_t, kSymbols> stream_code{};
  for (int s = 0; s < kSymbols; ++s) {
    const auto l = lengths[static_cast<std::size_t>(s)];
    if (l > 0) {
      out.put(static_cast<std::uint8_t>(s));
      out.put(l);
      stream_code[static_cast<std::size_t>(s)] =
          reversed(cc.code[static_cast<std::size_t>(s)], l);
    }
  }
  util::BitWriter bits;
  for (std::byte b : input) {
    const auto s = static_cast<std::size_t>(b);
    bits.write_bits(stream_code[s], cc.len[s]);
  }
  out.put_vector(bits.finish());
  return out.take();
}

util::Bytes huffman_decode(util::BytesView input) {
  util::ByteReader in(input);
  const auto count = in.get_varint();
  const auto used = in.get_varint();
  std::array<std::uint8_t, kSymbols> lengths{};
  for (std::uint64_t i = 0; i < used; ++i) {
    const auto sym = in.get<std::uint8_t>();
    const auto len = in.get<std::uint8_t>();
    CANOPUS_CHECK(len >= 1 && len <= kMaxCodeLen, "huffman table corrupt");
    lengths[sym] = len;
  }
  const auto payload = in.get_vector<std::byte>();
  const auto cc = canonicalize(lengths);

  // Canonical walk tables: for each length, first code and symbols.
  std::array<std::uint32_t, kMaxCodeLen + 2> first_code{};
  std::array<std::uint32_t, kMaxCodeLen + 2> first_index{};
  std::array<std::uint32_t, kMaxCodeLen + 2> level_count{};
  std::vector<int> order;
  for (int s = 0; s < kSymbols; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto la = lengths[static_cast<std::size_t>(a)];
    const auto lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  CANOPUS_CHECK(count == 0 || !order.empty(), "huffman stream missing table");
  for (int s : order) ++level_count[lengths[static_cast<std::size_t>(s)]];
  {
    std::uint32_t code = 0, index = 0;
    for (unsigned l = 1; l <= kMaxCodeLen; ++l) {
      code <<= 1;
      first_code[l] = code;
      first_index[l] = index;
      code += level_count[l];
      index += level_count[l];
    }
  }
  // Every kFastBits-bit window that starts with a short code maps to it.
  std::array<FastEntry, std::size_t{1} << kFastBits> fast{};
  for (int s : order) {
    const unsigned len = lengths[static_cast<std::size_t>(s)];
    if (len > kFastBits) continue;
    const std::uint32_t low = reversed(cc.code[static_cast<std::size_t>(s)], len);
    for (std::uint32_t high = 0; high < (1u << (kFastBits - len)); ++high) {
      fast[low | (high << len)] = {static_cast<std::uint8_t>(s),
                                   static_cast<std::uint8_t>(len)};
    }
  }

  // Each symbol consumes at least one payload bit (pad word included).
  CANOPUS_CHECK(count <= payload.size() * 8 + 64, "huffman stream corrupt (count)");
  util::BitReader bits(payload);
  util::Bytes out(count);
  for (auto& symbol : out) {
    const FastEntry e = fast[bits.peek_bits(kFastBits)];
    if (e.len > 0) {
      bits.skip_bits(e.len);
      symbol = static_cast<std::byte>(e.symbol);
      continue;
    }
    std::uint32_t code = 0;
    unsigned len = 0;
    int sym = -1;
    while (len < kMaxCodeLen) {
      code = (code << 1) | (bits.read_bit() ? 1u : 0u);
      ++len;
      if (level_count[len] > 0 && code >= first_code[len] &&
          code < first_code[len] + level_count[len]) {
        sym = order[first_index[len] + (code - first_code[len])];
        break;
      }
    }
    CANOPUS_CHECK(sym >= 0, "huffman stream corrupt");
    symbol = static_cast<std::byte>(sym);
  }
  return out;
}

}  // namespace canopus::compress
