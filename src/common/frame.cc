#include "src/common/frame.h"

#include <cstring>
#include <utility>

#include "src/common/wire.h"  // Also asserts the little-endian host the copies below need.

namespace dpack {

uint64_t LoadU64Le(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU64Le(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

void WriteFrameHeader(char* header, std::string_view payload) {
  StoreU64Le(header, payload.size());
  StoreU64Le(header + 8, Fnv1a64(payload));
}

void AppendFrame(std::string* out, std::string_view payload) {
  char header[kFrameHeaderBytes];
  WriteFrameHeader(header, payload);
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
}

EncodedFrame::EncodedFrame(std::string payload_bytes) : payload(std::move(payload_bytes)) {
  WriteFrameHeader(header, payload);
}

FrameDecodeStatus DecodeFrame(std::string_view buffer, size_t max_payload,
                              std::string_view* payload, size_t* consumed,
                              std::string* error) {
  if (buffer.size() < kFrameHeaderBytes) {
    return FrameDecodeStatus::kNeedMore;
  }
  uint64_t length = LoadU64Le(buffer.data());
  // The length bound comes before the availability check: a hostile length must be rejected
  // immediately, never held as "need more bytes" while the peer feeds the buffer forever.
  if (length > max_payload) {
    *error = "frame length " + std::to_string(length) + " exceeds the maximum payload " +
             std::to_string(max_payload);
    return FrameDecodeStatus::kCorrupt;
  }
  if (buffer.size() - kFrameHeaderBytes < length) {
    return FrameDecodeStatus::kNeedMore;
  }
  uint64_t checksum = LoadU64Le(buffer.data() + 8);
  std::string_view body = buffer.substr(kFrameHeaderBytes, static_cast<size_t>(length));
  if (Fnv1a64(body) != checksum) {
    *error = "frame checksum mismatch";
    return FrameDecodeStatus::kCorrupt;
  }
  *payload = body;
  *consumed = kFrameHeaderBytes + static_cast<size_t>(length);
  return FrameDecodeStatus::kOk;
}

}  // namespace dpack
