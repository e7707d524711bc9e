// The wire codec moves whole words (one append or memcpy per field, one per vector body).
// These tests pin that it is still, byte for byte, the fixed-width little-endian encoding
// the service wire and the snapshot format define: a byte-loop reference encoder and
// decoder, written out here, are the golden. Seeded field streams cover every writer field
// kind, with the awkward values included (-0.0, NaN payload bits, denormals, infinities,
// INT64_MIN, empty vectors). Every truncation prefix and every damaged vector count must
// fail with exactly the reference diagnostic.

#include "src/common/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "src/common/rng.h"

namespace dpack {
namespace {

// --- The reference: one byte at a time, shifts and masks, no host byte order ---------------

void RefPut(std::string& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

class RefReader {
 public:
  explicit RefReader(std::string_view data) : data_(data) {}

  bool Get(uint64_t* out, int bytes, const char* what) {
    if (!error_.empty()) {
      return false;
    }
    if (data_.size() - pos_ < static_cast<size_t>(bytes)) {
      error_ = std::string("truncated input while reading ") + what;
      return false;
    }
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += static_cast<size_t>(bytes);
    *out = v;
    return true;
  }
  // A vector: a u64 count that must fit the remaining bytes, then one u64 per element.
  bool Vec(std::vector<uint64_t>* out, const char* what) {
    uint64_t count;
    if (!Get(&count, 8, what)) {
      return false;
    }
    if (count > (data_.size() - pos_) / 8) {
      error_ = std::string("implausible element count for ") + what;
      return false;
    }
    out->resize(static_cast<size_t>(count));
    for (uint64_t& x : *out) {
      if (!Get(&x, 8, what)) {
        return false;
      }
    }
    return true;
  }
  const std::string& error() const { return error_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;
};

// --- A seeded stream of fields -------------------------------------------------------------

using Field = std::variant<uint8_t, uint32_t, uint64_t, int64_t, double, std::vector<double>,
                           std::vector<int64_t>>;

const char* NameOf(const Field& field) {
  static constexpr const char* kNames[] = {"u8", "u32", "u64", "i64", "f64", "f64vec", "i64vec"};
  return kNames[field.index()];
}

double AwkwardDouble(Rng& rng) {
  static const double kValues[] = {
      -0.0,
      0.0,
      DoubleOfBits(0x7ff8000000000123ULL),  // Quiet NaN with payload bits.
      DoubleOfBits(0xfff0000000000001ULL),  // Negative signaling NaN.
      DoubleOfBits(0x0000000000000001ULL),  // Smallest denormal.
      DoubleOfBits(0x800fffffffffffffULL),  // Largest negative denormal.
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      0.1,
  };
  if (rng.Bernoulli(0.5)) {
    return kValues[rng.UniformInt(0, static_cast<int64_t>(std::size(kValues)) - 1)];
  }
  return DoubleOfBits((static_cast<uint64_t>(rng.UniformInt(0, INT64_MAX)) << 1) |
                      static_cast<uint64_t>(rng.UniformInt(0, 1)));
}

int64_t AwkwardInt(Rng& rng) {
  static const int64_t kValues[] = {std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max(), -1, 0, 1};
  if (rng.Bernoulli(0.5)) {
    return kValues[rng.UniformInt(0, static_cast<int64_t>(std::size(kValues)) - 1)];
  }
  return rng.UniformInt(std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max());
}

std::vector<Field> RandomFields(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Field> fields;
  for (size_t i = 0; i < count; ++i) {
    switch (rng.UniformInt(0, 6)) {
      case 0:
        fields.emplace_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
        break;
      case 1:
        fields.emplace_back(static_cast<uint32_t>(rng.UniformInt(0, UINT32_MAX)));
        break;
      case 2:
        fields.emplace_back(static_cast<uint64_t>(AwkwardInt(rng)));
        break;
      case 3:
        fields.emplace_back(AwkwardInt(rng));
        break;
      case 4:
        fields.emplace_back(AwkwardDouble(rng));
        break;
      case 5: {
        std::vector<double> v(static_cast<size_t>(rng.UniformInt(0, 5)));  // Often empty.
        for (double& x : v) x = AwkwardDouble(rng);
        fields.emplace_back(std::move(v));
        break;
      }
      default: {
        std::vector<int64_t> v(static_cast<size_t>(rng.UniformInt(0, 5)));
        for (int64_t& x : v) x = AwkwardInt(rng);
        fields.emplace_back(std::move(v));
        break;
      }
    }
  }
  return fields;
}

std::string Encode(const std::vector<Field>& fields) {
  BinaryWriter w;
  for (const Field& f : fields) {
    switch (f.index()) {
      case 0: w.U8(std::get<0>(f)); break;
      case 1: w.U32(std::get<1>(f)); break;
      case 2: w.U64(std::get<2>(f)); break;
      case 3: w.I64(std::get<3>(f)); break;
      case 4: w.F64(std::get<4>(f)); break;
      case 5: w.F64Vec(std::get<5>(f)); break;
      default: w.I64Vec(std::get<6>(f)); break;
    }
  }
  return w.data();
}

std::string RefEncode(const std::vector<Field>& fields) {
  std::string out;
  for (const Field& f : fields) {
    switch (f.index()) {
      case 0: RefPut(out, std::get<0>(f), 1); break;
      case 1: RefPut(out, std::get<1>(f), 4); break;
      case 2: RefPut(out, std::get<2>(f), 8); break;
      case 3: RefPut(out, static_cast<uint64_t>(std::get<3>(f)), 8); break;
      case 4: RefPut(out, BitsOfDouble(std::get<4>(f)), 8); break;
      case 5:
        RefPut(out, std::get<5>(f).size(), 8);
        for (double x : std::get<5>(f)) RefPut(out, BitsOfDouble(x), 8);
        break;
      default:
        RefPut(out, std::get<6>(f).size(), 8);
        for (int64_t x : std::get<6>(f)) RefPut(out, static_cast<uint64_t>(x), 8);
        break;
    }
  }
  return out;
}

// Reads `fields`' kinds back from `bytes` with BinaryReader. Returns the decoded fields up
// to the first failure; *error is the reader's diagnostic ("" if every field decoded).
std::vector<Field> Decode(std::string_view bytes, const std::vector<Field>& kinds,
                          std::string* error) {
  BinaryReader r(bytes);
  std::vector<Field> out;
  for (const Field& kind : kinds) {
    const char* what = NameOf(kind);
    bool ok = false;
    switch (kind.index()) {
      case 0: { uint8_t v; ok = r.U8(&v, what); if (ok) out.emplace_back(v); break; }
      case 1: { uint32_t v; ok = r.U32(&v, what); if (ok) out.emplace_back(v); break; }
      case 2: { uint64_t v; ok = r.U64(&v, what); if (ok) out.emplace_back(v); break; }
      case 3: { int64_t v; ok = r.I64(&v, what); if (ok) out.emplace_back(v); break; }
      case 4: { double v; ok = r.F64(&v, what); if (ok) out.emplace_back(v); break; }
      case 5: {
        std::vector<double> v;
        ok = r.F64Vec(&v, what);
        if (ok) out.emplace_back(std::move(v));
        break;
      }
      default: {
        std::vector<int64_t> v;
        ok = r.I64Vec(&v, what);
        if (ok) out.emplace_back(std::move(v));
        break;
      }
    }
    if (!ok) {
      EXPECT_TRUE(r.failed());
      break;
    }
  }
  *error = r.error();
  return out;
}

// The reference decoder's diagnostic for the same field kinds over the same bytes.
std::string RefDecodeError(std::string_view bytes, const std::vector<Field>& kinds) {
  RefReader r(bytes);
  for (const Field& kind : kinds) {
    const char* what = NameOf(kind);
    uint64_t v;
    std::vector<uint64_t> vec;
    static constexpr int kWidth[] = {1, 4, 8, 8, 8};
    bool ok = kind.index() < 5 ? r.Get(&v, kWidth[kind.index()], what) : r.Vec(&vec, what);
    if (!ok) {
      break;
    }
  }
  return r.error();
}

// Field equality by bits: NaN payloads and the sign of zero must survive.
std::string Bits(const Field& f) {
  std::string out = std::to_string(f.index()) + ":";
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
          out += std::to_string(BitsOfDouble(v));
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          for (double x : v) out += std::to_string(BitsOfDouble(x)) + ",";
        } else if constexpr (std::is_same_v<T, std::vector<int64_t>>) {
          for (int64_t x : v) out += std::to_string(x) + ",";
        } else {
          out += std::to_string(v);
        }
      },
      f);
  return out;
}

TEST(WireCodecTest, FixedFieldsAreLittleEndianBytes) {
  BinaryWriter w;
  w.U8(0xAB);
  w.U32(0x01020304u);
  w.U64(0x1122334455667788ULL);
  w.I64(-2);
  w.F64(-0.0);
  w.F64Vec({});
  w.I64Vec({std::numeric_limits<int64_t>::min()});
  const std::string expected(
      "\xAB"
      "\x04\x03\x02\x01"
      "\x88\x77\x66\x55\x44\x33\x22\x11"
      "\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF"
      "\x00\x00\x00\x00\x00\x00\x00\x80"
      "\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x80",
      1 + 4 + 8 * 6);
  EXPECT_EQ(w.data(), expected);
}

TEST(WireCodecTest, SeededStreamsMatchTheByteLoopReference) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::vector<Field> fields = RandomFields(seed, 1 + seed % 24);
    std::string bytes = Encode(fields);
    ASSERT_EQ(bytes, RefEncode(fields)) << "seed " << seed;
    std::string error;
    std::vector<Field> decoded = Decode(bytes, fields, &error);
    ASSERT_EQ(error, "") << "seed " << seed;
    ASSERT_EQ(decoded.size(), fields.size()) << "seed " << seed;
    for (size_t i = 0; i < fields.size(); ++i) {
      EXPECT_EQ(Bits(decoded[i]), Bits(fields[i])) << "seed " << seed << " field " << i;
    }
  }
}

// Every strict prefix of an encoding fails, with the reference reader's diagnostic: the
// bulk vector read keeps the field-by-field reader's "truncated" and "implausible count"
// messages, and the field it names.
TEST(WireCodecTest, EveryTruncationFailsWithTheReferenceDiagnostic) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::vector<Field> fields = RandomFields(seed, 1 + seed % 12);
    std::string bytes = Encode(fields);
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::string_view prefix(bytes.data(), len);
      std::string error;
      Decode(prefix, fields, &error);
      ASSERT_FALSE(error.empty()) << "seed " << seed << " prefix " << len;
      ASSERT_EQ(error, RefDecodeError(prefix, fields)) << "seed " << seed << " prefix " << len;
    }
  }
}

TEST(WireCodecTest, DamagedVectorCountsAreImplausibleBeforeAnyAllocation) {
  for (uint64_t declared : {uint64_t{3}, uint64_t{4}, uint64_t{1} << 61, ~uint64_t{0}}) {
    std::string bytes;
    RefPut(bytes, declared, 8);
    RefPut(bytes, BitsOfDouble(1.5), 8);
    RefPut(bytes, BitsOfDouble(2.5), 8);  // Room for exactly two elements.
    BinaryReader r(bytes);
    std::vector<double> v;
    EXPECT_FALSE(r.F64Vec(&v, "curve")) << declared;
    EXPECT_EQ(r.error(), "implausible element count for curve") << declared;
    // The error latches: later reads fail without changing the diagnostic.
    double x;
    EXPECT_FALSE(r.F64(&x, "later"));
    EXPECT_EQ(r.error(), "implausible element count for curve");
  }
  std::string exact;
  RefPut(exact, 2, 8);
  RefPut(exact, 7, 8);
  RefPut(exact, static_cast<uint64_t>(-7), 8);
  BinaryReader r(exact);
  std::vector<int64_t> v;
  ASSERT_TRUE(r.I64Vec(&v, "ids"));
  EXPECT_EQ(v, (std::vector<int64_t>{7, -7}));
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace dpack
