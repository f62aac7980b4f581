#pragma once
// Floating-point codec interface.
//
// Canopus compresses the refactored products (base level and deltas) with a
// pluggable floating-point compressor; the paper ships ZFP and plans SZ/FPC.
// All our codecs are implemented from scratch:
//
//   zfp   - lifted bit planes or quantized Rice codes, fixed-accuracy (lossy)
//   sz    - predictive quantization + Huffman, error-bounded (lossy)
//   fpc   - FCM/DFCM predictor + leading-zero coding (lossless)
//   lzss  - dictionary coder over raw bytes (lossless)
//   huffman, raw  - entropy / trivial stages (lossless)
//
// Lossy codecs honor an absolute error bound; lossless codecs ignore it.
// Every encoded stream is self-describing: decode() needs only the bytes.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/byte_buffer.hpp"

namespace canopus::compress {

class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string name() const = 0;
  virtual bool lossless() const = 0;

  /// Encodes `values`; lossy codecs guarantee max |x - decode(x)| <= bound
  /// (bound <= 0 requests lossless behavior where supported).
  virtual util::Bytes encode(std::span<const double> values,
                             double error_bound) const = 0;

  /// Decodes a stream produced by this codec's encode().
  virtual std::vector<double> decode(util::BytesView bytes) const = 0;
};

using CodecPtr = std::unique_ptr<Codec>;

/// Instantiates a codec by registry name; throws Error for unknown names.
CodecPtr make_codec(const std::string& name);

/// Names available to make_codec, sorted.
std::vector<std::string> codec_names();

}  // namespace canopus::compress
