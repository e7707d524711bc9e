// SPSC shared-memory ring: framing, wrap-around, backpressure, and the reject-don't-trust
// corruption contract (truncation / bit-flip / short-read all surface as kCorrupt with the
// cursors untouched — mirroring checkpoint_test.cc's codec suite), plus the cross-process
// crash-safety property: a producer SIGKILLed at an arbitrary instant leaves only complete,
// checksum-valid frames visible to the consumer.

#include "src/common/shm_ring.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "src/common/subprocess.h"
#include "src/service/messages.h"

namespace dpack {
namespace {

constexpr size_t kRingBytes = 4096;

std::vector<char> RingMemory(size_t bytes = kRingBytes) {
  return std::vector<char>(bytes, 0);
}

TEST(ShmRingTest, MinBytesIsUsable) {
  std::vector<char> mem = RingMemory(ShmRing::MinBytes());
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  EXPECT_TRUE(ring.TryPush(EncodedFrame("x")));
  std::string out;
  EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kOk);
  EXPECT_EQ(out, "x");
}

TEST(ShmRingTest, RoundTripPreservesBytesAndOrder) {
  std::vector<char> mem = RingMemory();
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  std::vector<std::string> messages = {"", "a", std::string("\x00\xff\x7f", 3),
                                       std::string(700, 'q')};
  for (const std::string& m : messages) ASSERT_TRUE(ring.TryPush(EncodedFrame(m)));
  for (const std::string& m : messages) {
    std::string out;
    ASSERT_EQ(ring.TryPop(&out), RingPopStatus::kOk);
    EXPECT_EQ(out, m);
  }
  std::string out;
  EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kEmpty);
}

TEST(ShmRingTest, WrapAroundManyTimes) {
  std::vector<char> mem = RingMemory(ShmRing::MinBytes() + 256);
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  // Each frame is a large fraction of the capacity, so the buffer offset wraps constantly.
  for (int i = 0; i < 500; ++i) {
    std::string payload(97 + static_cast<size_t>(i % 51), static_cast<char>('a' + i % 26));
    ASSERT_TRUE(ring.TryPush(EncodedFrame(payload))) << i;
    std::string out;
    ASSERT_EQ(ring.TryPop(&out), RingPopStatus::kOk) << i;
    EXPECT_EQ(out, payload) << i;
  }
}

TEST(ShmRingTest, FullRingRefusesAndIsUnchanged) {
  std::vector<char> mem = RingMemory(ShmRing::MinBytes());
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  size_t pushed = 0;
  while (ring.TryPush(EncodedFrame(std::string(16, 'z')))) ++pushed;
  ASSERT_GT(pushed, 0u);
  uint64_t tail_before = ring.tail_cursor();
  EXPECT_FALSE(ring.TryPush(EncodedFrame(std::string(16, 'z'))));
  EXPECT_EQ(ring.tail_cursor(), tail_before);
  // Every queued frame is still intact.
  for (size_t i = 0; i < pushed; ++i) {
    std::string out;
    ASSERT_EQ(ring.TryPop(&out), RingPopStatus::kOk);
    EXPECT_EQ(out, std::string(16, 'z'));
  }
}

TEST(ShmRingTest, LargestFrameFillsRingExactly) {
  std::vector<char> mem = RingMemory();
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  std::string payload(ring.capacity() - 16, 'x');  // 16 = frame header bytes.
  ASSERT_TRUE(ring.TryPush(EncodedFrame(payload)));
  EXPECT_FALSE(ring.TryPush(EncodedFrame("")));  // Even an empty frame needs header space now.
  std::string out;
  ASSERT_EQ(ring.TryPop(&out), RingPopStatus::kOk);
  EXPECT_EQ(out, payload);
}

TEST(ShmRingTest, AttachSeesInitializerFrames) {
  std::vector<char> mem = RingMemory();
  ShmRing producer(mem.data(), mem.size(), /*initialize=*/true);
  ASSERT_TRUE(producer.TryPush(EncodedFrame("across handles")));
  ShmRing consumer(mem.data(), mem.size(), /*initialize=*/false);
  std::string out;
  ASSERT_EQ(consumer.TryPop(&out), RingPopStatus::kOk);
  EXPECT_EQ(out, "across handles");
  // The producer handle observes the consumption through the shared header.
  EXPECT_EQ(producer.used(), 0u);
}

// --- Corruption: mirror of the checkpoint codec's reject-don't-trust suite ----------------

// Flipping any single payload bit must fail the checksum, leave the cursors untouched, and
// poison the ring (subsequent pops keep reporting corruption).
TEST(ShmRingTest, PayloadBitFlipRejectedAndPoisons) {
  const std::string payload = "deterministic grant order";
  for (size_t bit = 0; bit < payload.size() * 8; bit += 17) {
    std::vector<char> mem = RingMemory();
    ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
    ASSERT_TRUE(ring.TryPush(EncodedFrame(payload)));
    // Frame layout from cursor 0: [len u64][checksum u64][payload].
    ring.raw_buffer()[16 + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    uint64_t head_before = ring.head_cursor();
    std::string out;
    EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kCorrupt) << "bit " << bit;
    EXPECT_EQ(ring.head_cursor(), head_before) << "bit " << bit;
    EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kCorrupt) << "bit " << bit;
  }
}

// A header-length bit-flip that inflates the frame past the published bytes is the
// short-read case: the consumer must refuse rather than read unpublished memory.
TEST(ShmRingTest, LengthBeyondPublishedRejected) {
  std::vector<char> mem = RingMemory();
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  ASSERT_TRUE(ring.TryPush(EncodedFrame("abc")));
  uint64_t huge = ring.capacity() * 2;
  std::memcpy(ring.raw_buffer(), &huge, sizeof(huge));
  std::string out;
  EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kCorrupt);
}

// Shrinking the length truncates the frame: the checksum (computed over the full payload)
// can no longer match the shortened slice.
TEST(ShmRingTest, TruncatedLengthRejected) {
  std::vector<char> mem = RingMemory();
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  ASSERT_TRUE(ring.TryPush(EncodedFrame("a longer payload, truncated in flight")));
  uint64_t shorter = 5;
  std::memcpy(ring.raw_buffer(), &shorter, sizeof(shorter));
  std::string out;
  EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kCorrupt);
}

TEST(ShmRingTest, ChecksumBitFlipRejected) {
  std::vector<char> mem = RingMemory();
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);
  ASSERT_TRUE(ring.TryPush(EncodedFrame("payload")));
  ring.raw_buffer()[8] ^= 0x40;  // Checksum word starts at frame offset 8.
  std::string out;
  EXPECT_EQ(ring.TryPop(&out), RingPopStatus::kCorrupt);
}

// A broadcast encodes once: the same EncodedFrame pushed into several rings pops as the
// same message from each, and a bit flipped in one ring's copy is rejected there alone —
// every consumer still verifies the checksum the producer computed once.
TEST(ShmRingTest, OneFrameBroadcastDecodesFromEveryRing) {
  constexpr size_t kRings = 4;
  TaskUpsertMsg tasks;
  tasks.entries.push_back({41, 2.5, 11.0, {0.1, -0.0}, {0, 3, 9}});
  tasks.entries.push_back({-7, 1.0, 0.0, {}, {}});
  const EncodedFrame frame(EncodeMessage(tasks));
  std::vector<std::vector<char>> memory(kRings, RingMemory());
  std::vector<ShmRing> rings;
  for (std::vector<char>& mem : memory) {
    rings.emplace_back(mem.data(), mem.size(), /*initialize=*/true);
  }
  for (ShmRing& ring : rings) {
    ASSERT_TRUE(ring.TryPush(frame));
  }
  rings.back().raw_buffer()[kFrameHeaderBytes + 5] ^= 0x01;  // One copy's payload only.
  for (size_t k = 0; k + 1 < kRings; ++k) {
    std::string out;
    ASSERT_EQ(rings[k].TryPop(&out), RingPopStatus::kOk) << "ring " << k;
    EXPECT_EQ(out, frame.payload) << "ring " << k;
    ServiceMessage decoded;
    std::string error;
    ASSERT_TRUE(DecodeMessage(out, &decoded, &error)) << error;
    auto* upsert = std::get_if<TaskUpsertMsg>(&decoded);
    ASSERT_NE(upsert, nullptr);
    ASSERT_EQ(upsert->entries.size(), 2u);
    EXPECT_EQ(upsert->entries[0].id, 41);
    EXPECT_EQ(upsert->entries[1].id, -7);
    EXPECT_EQ(EncodeMessage(decoded), out) << "ring " << k;
  }
  std::string out;
  EXPECT_EQ(rings.back().TryPop(&out), RingPopStatus::kCorrupt);
}

// --- Cross-process: the property the whole service leans on ------------------------------

// A child pushes a deterministic stream; the parent pops concurrently. Every message the
// parent sees must be exact and in order, across a real process boundary.
TEST(ShmRingCrossProcessTest, ChildProducerParentConsumer) {
  constexpr int kMessages = 400;
  ShmRegion region(kRingBytes);
  ShmRing ring(region.data(), region.size(), /*initialize=*/true);
  pid_t child = SpawnChild([&region]() {
    ShmRing producer(region.data(), region.size(), /*initialize=*/false);
    for (int i = 0; i < kMessages; ++i) {
      EncodedFrame frame("msg-" + std::to_string(i) + "-" +
                         std::string(static_cast<size_t>(i % 200), '#'));
      while (!producer.TryPush(frame)) {
      }
    }
    return 0;
  });
  for (int i = 0; i < kMessages; ++i) {
    std::string out;
    RingPopStatus status;
    while ((status = ring.TryPop(&out)) == RingPopStatus::kEmpty) {
    }
    ASSERT_EQ(status, RingPopStatus::kOk) << i;
    ASSERT_EQ(out, "msg-" + std::to_string(i) + "-" +
                       std::string(static_cast<size_t>(i % 200), '#'));
  }
  ChildStatus status = WaitChild(child);
  EXPECT_EQ(status.state, ChildState::kExited);
  EXPECT_EQ(status.exit_code, 0);
}

// SIGKILL the producer at an arbitrary instant mid-stream: whatever the consumer drains
// afterwards must be a clean prefix of the stream — complete frames, valid checksums, no
// corruption. This is the "crash leaves only complete frames" guarantee by construction.
TEST(ShmRingCrossProcessTest, ProducerSigkillLeavesOnlyCompleteFrames) {
  for (int round = 0; round < 8; ++round) {
    ShmRegion region(kRingBytes);
    ShmRing ring(region.data(), region.size(), /*initialize=*/true);
    pid_t child = SpawnChild([&region]() -> int {
      ShmRing producer(region.data(), region.size(), /*initialize=*/false);
      for (uint64_t i = 0;; ++i) {
        EncodedFrame frame("frame-" + std::to_string(i) + "-" +
                           std::string(100 + i % 700, 'p'));
        while (!producer.TryPush(frame)) {
        }
      }
    });
    // Let the child get some frames in flight, then kill it cold. The parent consumes a
    // few frames first so the producer is actively wrapping when the kill lands.
    uint64_t drained = 0;
    std::string out;
    while (drained < 5 + static_cast<uint64_t>(round) * 3) {
      RingPopStatus status = ring.TryPop(&out);
      if (status == RingPopStatus::kOk) {
        ++drained;
        continue;
      }
      ASSERT_EQ(status, RingPopStatus::kEmpty);
    }
    KillChild(child, SIGKILL);
    ChildStatus status = WaitChild(child);
    EXPECT_EQ(status.state, ChildState::kSignaled);
    EXPECT_EQ(status.term_signal, SIGKILL);
    // Drain everything the dead producer published. Every frame must decode exactly.
    while (true) {
      RingPopStatus pop = ring.TryPop(&out);
      if (pop == RingPopStatus::kEmpty) break;
      ASSERT_EQ(pop, RingPopStatus::kOk) << "round " << round << " frame " << drained;
      std::string expected =
          "frame-" + std::to_string(drained) + "-" + std::string(100 + drained % 700, 'p');
      ASSERT_EQ(out, expected) << "round " << round;
      ++drained;
    }
    ASSERT_GT(drained, 0u);
  }
}

TEST(WorkerControlBlockTest, LifeStateAndHeartbeatAcrossFork) {
  ShmRegion region(sizeof(WorkerControlBlock));
  auto* control = new (region.data()) WorkerControlBlock();
  control->heartbeat.store(0, std::memory_order_relaxed);
  control->life_state.store(static_cast<uint32_t>(WorkerLifeState::kStarting),
                            std::memory_order_relaxed);
  pid_t child = SpawnChild([control]() {
    control->life_state.store(static_cast<uint32_t>(WorkerLifeState::kReady),
                              std::memory_order_release);
    for (int i = 0; i < 1000; ++i) {
      control->heartbeat.fetch_add(1, std::memory_order_relaxed);
    }
    control->life_state.store(static_cast<uint32_t>(WorkerLifeState::kExited),
                              std::memory_order_release);
    return 0;
  });
  ChildStatus status = WaitChild(child);
  EXPECT_EQ(status.state, ChildState::kExited);
  EXPECT_EQ(control->heartbeat.load(std::memory_order_relaxed), 1000u);
  EXPECT_EQ(control->life_state.load(std::memory_order_acquire),
            static_cast<uint32_t>(WorkerLifeState::kExited));
}

}  // namespace
}  // namespace dpack
