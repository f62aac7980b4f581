#pragma once
// FPC-style lossless double compressor (Burtscher & Ratanaworabhan, 2009).
//
// Two hash-table predictors — FCM (last value seen in this context) and DFCM
// (last stride seen in this context) — race per value; the winner's
// prediction is XORed with the actual bits and the leading zero bytes are
// elided. Entirely lossless, fast, and effective on smooth time series.

#include <cstdint>
#include <span>
#include <vector>

#include "util/byte_buffer.hpp"

namespace canopus::compress {

/// The two predictor tables, for a caller that codes several streams in a
/// row: each call zeroes them before its stream, so the stream is bitwise
/// the one fresh tables give, and reusing them saves a fresh allocation of
/// 2^table_bits entries per table per stream. Not shared between threads.
struct FpcTables {
  std::vector<std::uint64_t> fcm, dfcm;
};

/// table_bits selects predictor table size (2^table_bits entries).
util::Bytes fpc_encode(std::span<const double> values, unsigned table_bits = 16);
util::Bytes fpc_encode(std::span<const double> values, FpcTables& tables,
                       unsigned table_bits = 16);
std::vector<double> fpc_decode(util::BytesView bytes);
std::vector<double> fpc_decode(util::BytesView bytes, FpcTables& tables);

}  // namespace canopus::compress
