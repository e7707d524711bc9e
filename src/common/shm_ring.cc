#include "src/common/shm_ring.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "src/common/check.h"
#include "src/common/wire.h"

namespace dpack {

// --- ShmRegion -----------------------------------------------------------------------------

ShmRegion::ShmRegion(size_t bytes) : bytes_(bytes) {
  DPACK_CHECK(bytes > 0);
  mem_ = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  DPACK_CHECK(mem_ != MAP_FAILED);
}

ShmRegion::~ShmRegion() {
  if (mem_ != nullptr) {
    munmap(mem_, bytes_);
  }
}

ShmRegion::ShmRegion(ShmRegion&& other) noexcept : mem_(other.mem_), bytes_(other.bytes_) {
  other.mem_ = nullptr;
  other.bytes_ = 0;
}

ShmRegion& ShmRegion::operator=(ShmRegion&& other) noexcept {
  if (this != &other) {
    if (mem_ != nullptr) {
      munmap(mem_, bytes_);
    }
    mem_ = other.mem_;
    bytes_ = other.bytes_;
    other.mem_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

// --- ShmRing -------------------------------------------------------------------------------

size_t ShmRing::MinBytes() { return sizeof(Header) + 64; }

ShmRing::ShmRing(void* mem, size_t bytes, bool initialize) {
  DPACK_CHECK(mem != nullptr);
  DPACK_CHECK(bytes >= MinBytes());
  if (initialize) {
    // Placement-new establishes the atomics' lifetimes in the zeroed shared page.
    header_ = new (mem) Header;
    header_->tail.store(0, std::memory_order_relaxed);
    header_->head.store(0, std::memory_order_relaxed);
    header_->capacity = bytes - sizeof(Header);
  } else {
    header_ = static_cast<Header*>(mem);
    DPACK_CHECK(header_->capacity == bytes - sizeof(Header));
  }
  buf_ = static_cast<char*>(mem) + sizeof(Header);
  cap_ = header_->capacity;
}

void ShmRing::CopyIn(uint64_t cursor, const char* src, size_t n) {
  size_t offset = static_cast<size_t>(cursor % cap_);
  size_t first = std::min(n, cap_ - offset);
  std::memcpy(buf_ + offset, src, first);
  if (first < n) {
    std::memcpy(buf_, src + first, n - first);
  }
}

void ShmRing::CopyOut(uint64_t cursor, char* dst, size_t n) const {
  size_t offset = static_cast<size_t>(cursor % cap_);
  size_t first = std::min(n, cap_ - offset);
  std::memcpy(dst, buf_ + offset, first);
  if (first < n) {
    std::memcpy(dst + first, buf_, n - first);
  }
}

bool ShmRing::TryPush(const EncodedFrame& frame) {
  uint64_t tail = header_->tail.load(std::memory_order_relaxed);  // Producer-owned.
  uint64_t head = header_->head.load(std::memory_order_acquire);
  uint64_t need = kFrameHeaderBytes + frame.payload.size();
  DPACK_CHECK(need <= cap_);  // A message larger than the ring can never succeed.
  if (cap_ - (tail - head) < need) {
    return false;
  }
  CopyIn(tail, frame.header, kFrameHeaderBytes);
  CopyIn(tail + kFrameHeaderBytes, frame.payload.data(), frame.payload.size());
  // The release publish is what makes a mid-write SIGKILL invisible: until this store the
  // consumer's acquire load cannot observe any byte of the frame.
  header_->tail.store(tail + need, std::memory_order_release);
  return true;
}

RingPopStatus ShmRing::TryPop(std::string* out) {
  uint64_t head = header_->head.load(std::memory_order_relaxed);  // Consumer-owned.
  uint64_t tail = header_->tail.load(std::memory_order_acquire);
  uint64_t available = tail - head;
  if (available == 0) {
    return RingPopStatus::kEmpty;
  }
  if (available < kFrameHeaderBytes) {
    return RingPopStatus::kCorrupt;  // A published frame is never smaller than its header.
  }
  char frame_header[kFrameHeaderBytes];
  CopyOut(head, frame_header, kFrameHeaderBytes);
  uint64_t length = LoadU64Le(frame_header);
  uint64_t checksum = LoadU64Le(frame_header + 8);
  if (length > cap_ || kFrameHeaderBytes + length > available) {
    return RingPopStatus::kCorrupt;  // Length field damaged (or truncated publish).
  }
  out->resize(static_cast<size_t>(length));
  CopyOut(head + kFrameHeaderBytes, out->data(), static_cast<size_t>(length));
  if (Fnv1a64(*out) != checksum) {
    return RingPopStatus::kCorrupt;  // Payload bit-flip.
  }
  header_->head.store(head + kFrameHeaderBytes + length, std::memory_order_release);
  return RingPopStatus::kOk;
}

size_t ShmRing::used() const {
  return static_cast<size_t>(header_->tail.load(std::memory_order_acquire) -
                             header_->head.load(std::memory_order_acquire));
}

uint64_t ShmRing::head_cursor() const { return header_->head.load(std::memory_order_acquire); }

uint64_t ShmRing::tail_cursor() const { return header_->tail.load(std::memory_order_acquire); }

}  // namespace dpack
