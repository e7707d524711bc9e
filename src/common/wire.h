// Binary wire codec primitives shared by every durable/IPC encoding in dpack: the
// checkpoint codec (src/orchestrator/checkpoint.cc) and the grant-service message framing
// (src/service/messages.h) write the same fixed-width little-endian fields, doubles as raw
// IEEE-754 bit patterns, and FNV-1a checksums — one encode discipline, so corruption
// rejection and byte-exactness proofs carry across subsystems.
//
// Both sides move whole words: the writer appends each fixed-width field, and each
// F64Vec/I64Vec body, with one append of its in-memory bytes, and the reader copies them
// out with one memcpy. That is byte-for-byte the little-endian encoding only on a
// little-endian host, which the static_assert below requires.
//
// BinaryReader is bounds-checked: it never reads past the payload, and a corrupted length
// field can never trigger a huge allocation (CheckCount caps declared element counts by the
// bytes actually remaining). On failure the reader latches a diagnostic naming the field.

#ifndef SRC_COMMON_WIRE_H_
#define SRC_COMMON_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace dpack {

// The service wire and the snapshot format are little-endian. On a little-endian host the
// in-memory bytes of a field are its encoding, so each field is one copy, not a byte loop.
static_assert(std::endian::native == std::endian::little,
              "the dpack wire and snapshot formats are little-endian; a big-endian host "
              "needs byte-swapping codec primitives");

// Raw IEEE-754 bit pattern of a double — the lossless way every codec moves floats.
inline uint64_t BitsOfDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline double DoubleOfBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// FNV-1a over the payload bytes: the checksum both the checkpoint codec and the service
// message framing append, so a flipped bit anywhere in a payload is always detected.
uint64_t Fnv1a64(std::string_view data);

// Appends fixed-width little-endian fields to an owned byte string.
class BinaryWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  void I64Vec(const std::vector<int64_t>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(int64_t));
  }
  // Appends raw bytes verbatim (length is NOT written; frame it yourself when needed).
  void Bytes(std::string_view bytes) { out_.append(bytes); }

  std::string& data() { return out_; }

 private:
  void Raw(const void* bytes, size_t n) {
    if (n > 0) {  // An empty vector's data() may be null.
      out_.append(static_cast<const char*>(bytes), n);
    }
  }

  std::string out_;
};

// Bounds-checked reader over a byte view; never reads past the payload. Each accessor
// returns false (and latches an error naming `what`) on truncation.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* out, const char* what) { return Raw(out, sizeof(*out), what); }
  bool U32(uint32_t* out, const char* what) { return Raw(out, sizeof(*out), what); }
  bool U64(uint64_t* out, const char* what) { return Raw(out, sizeof(*out), what); }
  bool I64(int64_t* out, const char* what) { return Raw(out, sizeof(*out), what); }
  bool F64(double* out, const char* what) { return Raw(out, sizeof(*out), what); }
  bool F64Vec(std::vector<double>* out, const char* what) { return Vec(out, what); }
  bool I64Vec(std::vector<int64_t>* out, const char* what) { return Vec(out, what); }
  // Reads an element count for records of at least `min_record_bytes`.
  bool Count(uint64_t* out, size_t min_record_bytes, const char* what) {
    return U64(out, what) && CheckCount(*out, min_record_bytes, what);
  }
  // Reads `bytes` raw bytes into a view over the underlying buffer.
  bool BytesView(size_t bytes, std::string_view* out, const char* what) {
    if (!Need(bytes, what)) {
      return false;
    }
    *out = data_.substr(pos_, bytes);
    pos_ += bytes;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  const std::string& error() const { return error_; }
  bool failed() const { return !error_.empty(); }
  // Latches an external structural error (same channel as truncation diagnostics).
  void FailWith(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message);
    }
  }

 private:
  // Copies the next `n` bytes into `out`, or latches a truncation error.
  bool Raw(void* out, size_t n, const char* what) {
    if (!Need(n, what)) {
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  // A u64 element count, then that many 8-byte elements in one copy. The count check runs
  // first, so a damaged count fails as implausible before anything is allocated.
  template <typename T>
  bool Vec(std::vector<T>* out, const char* what) {
    static_assert(sizeof(T) == 8);
    uint64_t count;
    if (!U64(&count, what) || !CheckCount(count, sizeof(T), what)) {
      return false;
    }
    out->resize(static_cast<size_t>(count));
    return count == 0 || Raw(out->data(), out->size() * sizeof(T), what);
  }
  bool Need(size_t bytes, const char* what) {
    if (failed()) {
      return false;
    }
    if (data_.size() - pos_ < bytes) {
      error_ = std::string("truncated input while reading ") + what;
      return false;
    }
    return true;
  }
  // A declared element count must fit in the remaining bytes, so a corrupted length field
  // can never trigger a huge allocation.
  bool CheckCount(uint64_t count, size_t min_record_bytes, const char* what) {
    if (failed()) {
      return false;
    }
    if (count > remaining() / min_record_bytes) {
      error_ = std::string("implausible element count for ") + what;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace dpack

#endif  // SRC_COMMON_WIRE_H_
