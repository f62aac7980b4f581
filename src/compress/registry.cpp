// Codec registry: adapts the standalone compressors to the Codec interface
// and exposes them by name. Byte-oriented lossless stages (lzss, huffman,
// raw) treat the doubles as an 8-byte-per-value stream.

#include <cstring>
#include <functional>
#include <map>

#include "compress/codec.hpp"
#include "compress/fpc.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "compress/sz_like.hpp"
#include "compress/zfp_like.hpp"
#include "util/assert.hpp"

namespace canopus::compress {

namespace {

class ZfpCodec final : public Codec {
 public:
  std::string name() const override { return "zfp"; }
  bool lossless() const override { return false; }
  util::Bytes encode(std::span<const double> values, double bound) const override {
    return zfp_encode(values, bound);
  }
  std::vector<double> decode(util::BytesView bytes) const override {
    return zfp_decode(bytes);
  }
};

class SzCodec final : public Codec {
 public:
  std::string name() const override { return "sz"; }
  bool lossless() const override { return false; }
  util::Bytes encode(std::span<const double> values, double bound) const override {
    return sz_encode(values, bound);
  }
  std::vector<double> decode(util::BytesView bytes) const override {
    return sz_decode(bytes);
  }
};

class FpcCodec final : public Codec {
 public:
  std::string name() const override { return "fpc"; }
  bool lossless() const override { return true; }
  util::Bytes encode(std::span<const double> values, double /*bound*/) const override {
    return fpc_encode(values);
  }
  std::vector<double> decode(util::BytesView bytes) const override {
    return fpc_decode(bytes);
  }
};

/// A lossless bytes->bytes transform, a codec over the values' bytes.
struct ByteStage {
  util::Bytes (*encode)(util::BytesView);
  util::Bytes (*decode)(util::BytesView);
};

util::Bytes identity(util::BytesView in) {
  return util::Bytes(in.begin(), in.end());
}

/// Adapts a byte stage into a double codec.
class ByteStageCodec final : public Codec {
 public:
  ByteStageCodec(std::string codec_name, ByteStage stage)
      : name_(std::move(codec_name)), stage_(stage) {}

  std::string name() const override { return name_; }
  bool lossless() const override { return true; }

  util::Bytes encode(std::span<const double> values, double /*bound*/) const override {
    util::BytesView raw(reinterpret_cast<const std::byte*>(values.data()),
                        values.size() * sizeof(double));
    return stage_.encode(raw);
  }
  std::vector<double> decode(util::BytesView bytes) const override {
    return util::from_bytes<double>(stage_.decode(bytes));
  }

 private:
  std::string name_;
  ByteStage stage_;
};

using Factory = std::function<CodecPtr()>;

Factory byte_codec(const std::string& name, ByteStage stage) {
  return [=] { return CodecPtr(std::make_unique<ByteStageCodec>(name, stage)); };
}

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> map = {
      {"zfp", [] { return CodecPtr(std::make_unique<ZfpCodec>()); }},
      {"sz", [] { return CodecPtr(std::make_unique<SzCodec>()); }},
      {"fpc", [] { return CodecPtr(std::make_unique<FpcCodec>()); }},
      {"lzss", byte_codec("lzss", {lzss_encode, lzss_decode})},
      {"huffman", byte_codec("huffman", {huffman_encode, huffman_decode})},
      {"raw", byte_codec("raw", {identity, identity})},
  };
  return map;
}

}  // namespace

CodecPtr make_codec(const std::string& name) {
  auto it = factories().find(name);
  CANOPUS_CHECK(it != factories().end(), "unknown codec: " + name);
  return it->second();
}

std::vector<std::string> codec_names() {
  std::vector<std::string> names;
  for (const auto& [name, _] : factories()) names.push_back(name);  // sorted
  return names;
}

}  // namespace canopus::compress
