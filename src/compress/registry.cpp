// Codec registry: adapts the standalone compressors to the Codec interface
// and exposes them by name. Byte-oriented lossless stages (lzss, huffman,
// raw) treat the doubles as an 8-byte-per-value stream.

#include <algorithm>
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

/// A lossless bytes->bytes transform: a codec on its own (over the values'
/// bytes) and a stage after any double codec.
struct ByteStage {
  util::Bytes (*encode)(util::BytesView);
  util::Bytes (*decode)(util::BytesView);
};

util::Bytes identity(util::BytesView in) {
  return util::Bytes(in.begin(), in.end());
}

/// The byte stages a "head+stage" chain may name.
const std::map<std::string, ByteStage>& byte_stages() {
  static const std::map<std::string, ByteStage> map = {
      {"lzss", {lzss_encode, lzss_decode}},
      {"huffman", {huffman_encode, huffman_decode}},
  };
  return map;
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

/// Chains a double codec with lossless byte stages: "zfp+lzss" runs zfp's
/// output through lzss; "fpc+lzss+huffman" stacks two. The chain is lossless
/// iff the head codec is.
class PipelineCodec final : public Codec {
 public:
  PipelineCodec(std::string full_name, CodecPtr head,
                std::vector<ByteStage> stages)
      : name_(std::move(full_name)),
        head_(std::move(head)),
        stages_(std::move(stages)) {}

  std::string name() const override { return name_; }
  bool lossless() const override { return head_->lossless(); }

  util::Bytes encode(std::span<const double> values, double bound) const override {
    util::Bytes data = head_->encode(values, bound);
    for (const auto& stage : stages_) data = stage.encode(data);
    return data;
  }

  std::vector<double> decode(util::BytesView bytes) const override {
    util::Bytes data(bytes.begin(), bytes.end());
    for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
      data = it->decode(data);
    }
    return head_->decode(data);
  }

 private:
  std::string name_;
  CodecPtr head_;
  std::vector<ByteStage> stages_;
};

using Factory = std::function<CodecPtr()>;

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> map = {
      {"zfp", [] { return CodecPtr(std::make_unique<ZfpCodec>()); }},
      {"sz", [] { return CodecPtr(std::make_unique<SzCodec>()); }},
      {"fpc", [] { return CodecPtr(std::make_unique<FpcCodec>()); }},
      {"raw",
       [] {
         return CodecPtr(std::make_unique<ByteStageCodec>(
             "raw", ByteStage{identity, identity}));
       }},
  };
  return map;
}

}  // namespace

CodecPtr make_codec(const std::string& name) {
  // "head+stage+stage" composes a double codec with lossless byte stages.
  const auto plus = name.find('+');
  if (plus != std::string::npos) {
    const std::string head_name = name.substr(0, plus);
    CodecPtr head = make_codec(head_name);
    std::vector<ByteStage> stages;
    std::size_t pos = plus + 1;
    while (pos <= name.size()) {
      const auto next = name.find('+', pos);
      const auto stage = byte_stages().find(name.substr(pos, next - pos));
      CANOPUS_CHECK(stage != byte_stages().end(),
                    "unknown pipeline stage: " + name.substr(pos, next - pos));
      stages.push_back(stage->second);
      if (next == std::string::npos) break;
      pos = next + 1;
    }
    CANOPUS_CHECK(!stages.empty(), "empty pipeline stage in codec: " + name);
    return std::make_unique<PipelineCodec>(name, std::move(head), std::move(stages));
  }
  if (const auto stage = byte_stages().find(name); stage != byte_stages().end()) {
    return std::make_unique<ByteStageCodec>(name, stage->second);
  }
  auto it = factories().find(name);
  CANOPUS_CHECK(it != factories().end(), "unknown codec: " + name);
  return it->second();
}

std::vector<std::string> codec_names() {
  std::vector<std::string> names;
  for (const auto& [name, _] : factories()) names.push_back(name);
  for (const auto& [name, _] : byte_stages()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace canopus::compress
