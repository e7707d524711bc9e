// Service wire protocol: encode/decode roundtrips for every message type, the pinned type
// tags and wire version of the socket edge, plus the checkpoint codec's corruption
// discipline applied to the protocol — every truncation prefix, header damage, type
// confusion (the retired daemon-worker tags included), and trailing garbage must be
// rejected with a diagnostic, never decoded into a silently-wrong message. A seeded mutation
// fuzzer drives the frame and message decoders together, the way bytes arrive off a socket.

#include "src/service/messages.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/frame.h"
#include "src/common/rng.h"
#include "src/common/wire.h"

namespace dpack {
namespace {

// One representative instance per message type, with non-default field values so a decode
// that drops or reorders fields cannot roundtrip.
std::vector<ServiceMessage> SampleMessages() {
  std::vector<ServiceMessage> samples;

  samples.emplace_back(ShutdownMsg{});

  SubmitMsg submit;
  submit.seq = 11;
  submit.now = 3.5;
  TaskRecord submit_entry;
  submit_entry.id = 77;
  submit_entry.weight = 2.0;
  submit_entry.arrival_time = 3.25;
  submit_entry.timeout = std::numeric_limits<double>::infinity();
  submit_entry.num_recent_blocks = 5;
  submit_entry.demand = {0.125, 0.25};
  submit_entry.blocks = {};
  submit.entries.push_back(submit_entry);
  submit.entries.push_back({78, 1.0, 3.5, 10.0, {0.5}, {2, 4}, 0});
  samples.emplace_back(submit);

  SubmitReplyMsg submit_reply;
  submit_reply.seq = 11;
  submit_reply.accepted = 1;
  submit_reply.rejected = 1;
  samples.emplace_back(submit_reply);

  RunCycleMsg run_cycle;
  run_cycle.seq = 12;
  run_cycle.now = 4.0;
  samples.emplace_back(run_cycle);

  CycleReplyMsg cycle_reply;
  cycle_reply.seq = 12;
  cycle_reply.cycle = 4;
  cycle_reply.granted = {77, 41};
  samples.emplace_back(cycle_reply);
  return samples;
}

void ExpectSameMessage(const ServiceMessage& actual, const ServiceMessage& expected,
                       size_t type_index) {
  ASSERT_EQ(actual.index(), expected.index()) << "type " << type_index;
  // Re-encoding is the cheapest deep equality: the codec is deterministic, so equal bytes
  // iff equal messages (and the roundtrip already proved decode(encode(m)) parses).
  EXPECT_EQ(EncodeMessage(actual), EncodeMessage(expected)) << "type " << type_index;
}

TEST(ServiceMessagesTest, EveryTypeRoundTrips) {
  std::vector<ServiceMessage> samples = SampleMessages();
  ASSERT_EQ(samples.size(), std::variant_size_v<ServiceMessage>);
  for (size_t i = 0; i < samples.size(); ++i) {
    std::string bytes = EncodeMessage(samples[i]);
    ServiceMessage decoded;
    std::string error;
    ASSERT_TRUE(DecodeMessage(bytes, &decoded, &error)) << "type " << i << ": " << error;
    ExpectSameMessage(decoded, samples[i], i);
  }
}

TEST(ServiceMessagesTest, EncodingIsDeterministic) {
  for (const ServiceMessage& message : SampleMessages()) {
    EXPECT_EQ(EncodeMessage(message), EncodeMessage(message));
  }
}

// Every strict prefix of every encoded message must fail to decode — never crash, never
// yield a message.
TEST(ServiceMessagesTest, EveryTruncationPrefixRejected) {
  for (const ServiceMessage& message : SampleMessages()) {
    std::string bytes = EncodeMessage(message);
    for (size_t len = 0; len < bytes.size(); ++len) {
      ServiceMessage decoded;
      std::string error;
      EXPECT_FALSE(DecodeMessage(std::string_view(bytes.data(), len), &decoded, &error))
          << "type index " << message.index() << " prefix " << len;
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ServiceMessagesTest, TrailingBytesRejected) {
  for (const ServiceMessage& message : SampleMessages()) {
    std::string bytes = EncodeMessage(message) + '\0';
    ServiceMessage decoded;
    std::string error;
    EXPECT_FALSE(DecodeMessage(bytes, &decoded, &error)) << message.index();
  }
}

// The socket edge's envelope is a compatibility contract with deployed clients: the wire
// version and each message's type tag must never move. The samples are in variant order.
TEST(ServiceMessagesTest, EdgeTagsAndWireVersionArePinned) {
  EXPECT_EQ(kServiceWireVersion, 2u);
  const uint8_t expected_tags[] = {9, 10, 11, 12, 13};  // Shutdown .. CycleReply.
  std::vector<ServiceMessage> samples = SampleMessages();
  ASSERT_EQ(samples.size(), std::size(expected_tags));
  for (size_t i = 0; i < samples.size(); ++i) {
    std::string bytes = EncodeMessage(samples[i]);
    ASSERT_GE(bytes.size(), 9u);
    EXPECT_EQ(bytes.substr(0, 4), "DSVC") << "type " << i;
    EXPECT_EQ(bytes.substr(4, 4), std::string("\x02\x00\x00\x00", 4)) << "type " << i;
    EXPECT_EQ(static_cast<uint8_t>(bytes[8]), expected_tags[i]) << "type " << i;
  }
}

// The round-trip, truncation and mutation suites pass for any self-consistent layout; this
// pins the layout itself. The sizes and FNV-1a hashes were taken from the hand-written
// per-direction encoders that preceded the shared field lists, so a schema that reorders,
// drops or retypes a field fails here.
TEST(ServiceMessagesTest, EncodedBytesArePinned) {
  struct Pin {
    size_t size;
    uint64_t fnv1a;
  };
  const Pin expected[] = {
      {9, 0xe1c000f3b47426c2ull},    // Shutdown
      {185, 0x9bb940fd81e368b4ull},  // Submit
      {33, 0x90cf645139d81bd7ull},   // SubmitReply
      {25, 0x65ecf1b9b5fe6395ull},   // RunCycle
      {49, 0xa6fee27c0ba3dd78ull},   // CycleReply
  };
  std::vector<ServiceMessage> samples = SampleMessages();
  ASSERT_EQ(samples.size(), std::size(expected));
  for (size_t i = 0; i < samples.size(); ++i) {
    std::string bytes = EncodeMessage(samples[i]);
    EXPECT_EQ(bytes.size(), expected[i].size) << "type " << i;
    EXPECT_EQ(Fnv1a64(bytes), expected[i].fnv1a) << "type " << i;
  }
}

// Tags 1-8 were the daemon-worker protocol's. They are unknown types now: a frame carrying
// one is rejected with a diagnostic naming the type, whatever body follows it.
TEST(ServiceMessagesTest, RetiredWorkerTagsRejected) {
  std::string shutdown = EncodeMessage(ServiceMessage(ShutdownMsg{}));
  for (uint8_t tag = 1; tag <= 8; ++tag) {
    for (const std::string& body : {std::string(), std::string(12, '\0')}) {
      std::string bytes = shutdown + body;
      bytes[8] = static_cast<char>(tag);
      ServiceMessage decoded;
      std::string error;
      EXPECT_FALSE(DecodeMessage(bytes, &decoded, &error)) << "tag " << int{tag};
      EXPECT_NE(error.find("unknown service message type " + std::to_string(tag)),
                std::string::npos)
          << error;
    }
  }
}

// Header damage: bad magic, unknown version, unknown type byte.
TEST(ServiceMessagesTest, HeaderDamageRejected) {
  std::string bytes = EncodeMessage(ServiceMessage(RunCycleMsg{1, 2.0}));
  {
    std::string bad = bytes;
    bad[0] ^= 0x01;  // Magic.
    ServiceMessage decoded;
    std::string error;
    EXPECT_FALSE(DecodeMessage(bad, &decoded, &error));
  }
  {
    std::string bad = bytes;
    bad[4] = static_cast<char>(0x7f);  // Version word (little-endian u32 after the magic).
    ServiceMessage decoded;
    std::string error;
    EXPECT_FALSE(DecodeMessage(bad, &decoded, &error));
  }
  {
    std::string bad = bytes;
    bad[8] = static_cast<char>(0xee);  // Type byte.
    ServiceMessage decoded;
    std::string error;
    EXPECT_FALSE(DecodeMessage(bad, &decoded, &error));
  }
}

// Single-bit flips over the whole encoding must either fail to decode or decode to a
// message that re-encodes differently from the original (i.e. the flip is observable —
// no bit of the payload is silently ignored). Structural fields usually fail; payload
// bits (curve values, scores) decode but to visibly different values.
TEST(ServiceMessagesTest, BitFlipsAreObservable) {
  for (const ServiceMessage& message : SampleMessages()) {
    std::string bytes = EncodeMessage(message);
    for (size_t bit = 0; bit < bytes.size() * 8; bit += 7) {
      std::string bad = bytes;
      bad[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      ServiceMessage decoded;
      std::string error;
      if (DecodeMessage(bad, &decoded, &error)) {
        EXPECT_NE(EncodeMessage(decoded), bytes)
            << "type index " << message.index() << " bit " << bit;
      }
    }
  }
}

// An implausible element count (a length prefix far beyond the buffer) must be rejected as
// corruption, not attempted as an allocation.
TEST(ServiceMessagesTest, ImplausibleCountRejected) {
  CycleReplyMsg reply;
  reply.seq = 1;
  reply.granted = {1, 2, 3};
  std::string bytes = EncodeMessage(ServiceMessage(reply));
  // The granted count is the first u64 after [magic u32][version u32][type u8][seq u64]
  // [cycle u64].
  size_t count_offset = 4 + 4 + 1 + 8 + 8;
  ASSERT_LT(count_offset + 8, bytes.size());
  for (int i = 0; i < 8; ++i) bytes[count_offset + i] = static_cast<char>(0xff);
  ServiceMessage decoded;
  std::string error;
  EXPECT_FALSE(DecodeMessage(bytes, &decoded, &error));
  EXPECT_FALSE(error.empty());
}

// --- Checksum-repaired mutations: the frame and message decoders under hostile bytes ---

size_t MutationIterations() {
  // DPACK_FUZZ_ITERATIONS is the fuzz depth shared with scenario_fuzz_test (default 100);
  // this test runs twice that many mutations.
  const char* env = std::getenv("DPACK_FUZZ_ITERATIONS");
  if (env != nullptr) {
    long long parsed = std::atoll(env);
    if (parsed > 0) {
      return 2 * static_cast<size_t>(parsed);
    }
  }
  return 200;
}

// 1-8 byte flips, inserts and deletes at random positions.
void MutateBytes(Rng& rng, std::string* bytes) {
  int64_t mutations = rng.UniformInt(1, 8);
  for (int64_t m = 0; m < mutations; ++m) {
    int64_t kind = bytes->empty() ? 1 : rng.UniformInt(0, 2);  // Only an insert fits "".
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes->size()) - (kind == 1 ? 0 : 1)));
    char byte = static_cast<char>(rng.UniformInt(1, 255));
    if (kind == 0) {
      (*bytes)[pos] = static_cast<char>((*bytes)[pos] ^ byte);
    } else if (kind == 1) {
      bytes->insert(pos, 1, byte);
    } else {
      bytes->erase(pos, 1);
    }
  }
}

// One seeded iteration; returns true when the mutated bytes decoded to a message. The
// payload of a sample message is mutated and then framed with a repaired length and
// checksum, so DecodeFrame hands it to DecodeMessage. One iteration in four also damages
// the frame header (or truncates the frame), which DecodeFrame itself must catch.
bool RunMutationIteration(uint64_t seed) {
  SCOPED_TRACE("mutation seed=" + std::to_string(seed) +
               " (replay: DPACK_FUZZ_REPLAY_SEED=" + std::to_string(seed) + ")");
  Rng rng(seed);
  std::vector<ServiceMessage> samples = SampleMessages();
  std::string payload = EncodeMessage(
      samples[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(samples.size()) - 1))]);
  MutateBytes(rng, &payload);
  std::string frame;
  AppendFrame(&frame, payload);
  if (rng.UniformInt(0, 3) == 0) {
    if (rng.Bernoulli(0.5)) {
      size_t pos = static_cast<size_t>(rng.UniformInt(0, kFrameHeaderBytes - 1));
      frame[pos] = static_cast<char>(frame[pos] ^ static_cast<char>(rng.UniformInt(1, 255)));
    } else {
      frame.resize(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1)));
    }
  }

  std::string_view body;
  size_t consumed = 0;
  std::string error;
  switch (DecodeFrame(frame, /*max_payload=*/1 << 20, &body, &consumed, &error)) {
    case FrameDecodeStatus::kCorrupt:
      EXPECT_FALSE(error.empty());
      return false;
    case FrameDecodeStatus::kNeedMore:
      // Only a frame shorter than its header declares may ask for more bytes.
      EXPECT_TRUE(frame.size() < kFrameHeaderBytes ||
                  frame.size() - kFrameHeaderBytes < LoadU64Le(frame.data()));
      return false;
    case FrameDecodeStatus::kOk:
      break;
  }
  // An accepted frame is exactly the frame of its payload.
  std::string reframed;
  AppendFrame(&reframed, body);
  EXPECT_EQ(reframed, frame.substr(0, consumed));
  ServiceMessage decoded;
  if (!DecodeMessage(body, &decoded, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  // An accepted message re-encodes to exactly the mutated bytes: no byte was ignored or
  // normalized on the way in.
  EXPECT_EQ(EncodeMessage(decoded), std::string(body));
  return true;
}

TEST(ServiceMessagesTest, ChecksumRepairedMutationsAreRejectedOrExact) {
  if (const char* replay = std::getenv("DPACK_FUZZ_REPLAY_SEED")) {
    RunMutationIteration(static_cast<uint64_t>(std::atoll(replay)));
    return;
  }
  constexpr uint64_t kBaseSeed = 9100;
  size_t accepted = 0;
  size_t iterations = MutationIterations();
  std::printf("mutation seeds %llu..%llu\n", static_cast<unsigned long long>(kBaseSeed),
              static_cast<unsigned long long>(kBaseSeed + iterations - 1));
  for (size_t i = 0; i < iterations; ++i) {
    accepted += RunMutationIteration(kBaseSeed + i) ? 1 : 0;
    if (testing::Test::HasFailure()) {
      return;  // The SCOPED_TRACE of the failing seed is in the log.
    }
  }
  // Both outcomes must occur, or the test is not reaching past one of the two decoders.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, iterations);
}

}  // namespace
}  // namespace dpack
