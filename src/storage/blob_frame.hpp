#pragma once
// Framed-blob format: every object a StorageTier persists is wrapped in a
// small integrity frame so corrupt bytes coming back from a failing tier are
// detected at the I/O boundary instead of propagating into decompression.
//
// Layout (little-endian, 16-byte header):
//
//   u32 magic    "CFR1" (0x31524643)
//   u64 length   payload bytes
//   u32 crc32    CRC-32 (IEEE) of the payload
//   ...payload...
//
// Framing is transparent: tiers frame on write and verify+strip on read, and
// all capacity accounting stays in *payload* bytes so the cost model and the
// placement decisions are unchanged by the 16-byte physical overhead.

#include <cstddef>
#include <cstdint>

#include "storage/tier.hpp"
#include "util/assert.hpp"
#include "util/byte_buffer.hpp"

namespace canopus::storage {

/// Thrown when a stored blob fails verification (bad magic, inconsistent
/// length, or CRC mismatch) — i.e. the bytes that came back are not the bytes
/// that were written. Distinct from TierIoError so callers can count
/// corruption separately from plain I/O failures.
class IntegrityError : public StorageError {
 public:
  explicit IntegrityError(const std::string& what) : StorageError(what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0x31524643u;  // "CFR1"
inline constexpr std::size_t kFrameOverhead = 16;          // magic+length+crc

/// Physical size of the frame holding `payload_bytes` of payload.
constexpr std::size_t framed_size(std::size_t payload_bytes) {
  return payload_bytes + kFrameOverhead;
}

/// Wraps a payload in an integrity frame.
util::Bytes frame_blob(util::BytesView payload);

/// Verifies a frame and returns the payload; throws IntegrityError when the
/// magic, length, or checksum does not match.
util::Bytes unframe_blob(util::BytesView frame);

}  // namespace canopus::storage
