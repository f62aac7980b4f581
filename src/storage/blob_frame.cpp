#include "storage/blob_frame.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace canopus::storage {

util::Bytes frame_blob(util::BytesView payload) {
  util::Bytes frame(framed_size(payload.size()));
  const std::uint32_t magic = kFrameMagic;
  const std::uint64_t length = payload.size();
  const std::uint32_t crc = util::Crc32::compute(payload);
  std::memcpy(frame.data(), &magic, sizeof magic);
  std::memcpy(frame.data() + 4, &length, sizeof length);
  std::memcpy(frame.data() + 12, &crc, sizeof crc);
  // An empty payload may have a null data(); memcpy from null is undefined
  // even for zero bytes.
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameOverhead, payload.data(), payload.size());
  }
  return frame;
}

util::Bytes unframe_blob(util::BytesView frame) {
  if (frame.size() < kFrameOverhead) {
    throw IntegrityError("blob frame truncated: " +
                         std::to_string(frame.size()) + " bytes");
  }
  std::uint32_t magic = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::memcpy(&magic, frame.data(), sizeof magic);
  std::memcpy(&length, frame.data() + 4, sizeof length);
  std::memcpy(&crc, frame.data() + 12, sizeof crc);
  if (magic != kFrameMagic) {
    throw IntegrityError("blob frame magic mismatch");
  }
  if (length != frame.size() - kFrameOverhead) {
    throw IntegrityError("blob frame length corrupt: header says " +
                         std::to_string(length) + ", frame holds " +
                         std::to_string(frame.size() - kFrameOverhead));
  }
  const auto payload = frame.subspan(kFrameOverhead);
  const std::uint32_t actual = util::Crc32::compute(payload);
  if (actual != crc) {
    throw IntegrityError("blob frame checksum mismatch");
  }
  return util::Bytes(payload.begin(), payload.end());
}

}  // namespace canopus::storage
