// The checksum frame every dpack transport speaks: [u64 payload length][u64 FNV-1a
// checksum][payload bytes], all little-endian (the wire.h discipline). Originally private
// to the shm ring (src/common/shm_ring.cc); hoisted here so the socket transport
// (src/service/net_transport.h) frames its byte stream with the exact same contract — one
// frame codec, one corruption-rejection discipline, shared by shared memory and sockets.
//
// Decoding never trusts the length field: DecodeFrame bounds it by both the bytes actually
// buffered and a caller-supplied maximum, so a hostile or damaged header can neither trigger
// a huge allocation nor convince a reader to wait forever for bytes that are never coming.
// A checksum mismatch is reported distinctly from "need more bytes" — stream transports must
// treat it as poison (drop the peer), never resynchronize past it.

#ifndef SRC_COMMON_FRAME_H_
#define SRC_COMMON_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dpack {

// u64 payload length + u64 FNV-1a checksum.
inline constexpr size_t kFrameHeaderBytes = 16;

// Fixed-width little-endian loads/stores (alignment-safe; wire.h requires a little-endian host).
uint64_t LoadU64Le(const char* p);
void StoreU64Le(char* p, uint64_t v);

// Writes the 16-byte frame header for `payload` into `header` (at least kFrameHeaderBytes).
void WriteFrameHeader(char* header, std::string_view payload);

// Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::string* out, std::string_view payload);

// One payload and its frame header, computed once. A broadcast pushes the same EncodedFrame
// into every worker's ring, so it pays for the encode and the checksum once, not per ring.
struct EncodedFrame {
  explicit EncodedFrame(std::string payload_bytes);

  char header[kFrameHeaderBytes];
  std::string payload;
};

enum class FrameDecodeStatus {
  kOk,        // One complete, checksum-clean frame; *payload set, *consumed advanced.
  kNeedMore,  // `buffer` holds a frame prefix; read more bytes and retry.
  kCorrupt,   // Length exceeds `max_payload` or the checksum fails; *error names which.
};

// Decodes the frame at the front of `buffer`. On kOk, *payload views the payload bytes
// inside `buffer` (valid only while `buffer` lives) and *consumed is the total frame size
// to drop from the front. On kCorrupt the buffer is poison: a stream reader cannot know
// where the next frame boundary is, so the only safe reaction is to discard the peer.
FrameDecodeStatus DecodeFrame(std::string_view buffer, size_t max_payload,
                              std::string_view* payload, size_t* consumed,
                              std::string* error);

}  // namespace dpack

#endif  // SRC_COMMON_FRAME_H_
