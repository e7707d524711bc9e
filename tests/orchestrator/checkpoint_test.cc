// Property tests for the binary snapshot codec: randomized cluster states round-trip
// bit-exactly, and corrupted inputs — truncations, single-bit flips, wrong versions, edited
// fields, inconsistent structures, and mutations with a repaired checksum — are rejected
// with a diagnostic, never a crash (the ASan/UBSan CI leg runs this suite) and never a
// silently-wrong budget.

#include "src/orchestrator/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/common/wire.h"
#include "src/core/metrics.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

// Builds a randomized but internally consistent cluster state — blocks with committed
// budget and partial unlocks, a pending queue, metrics that balance against it — and
// captures it, exercising CaptureSnapshot itself along the way.
ClusterSnapshot RandomSnapshot(uint64_t seed, size_t num_blocks, size_t num_pending,
                               size_t num_shards = 3) {
  Rng rng(seed);
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.AddBlock(static_cast<double>(b) * 0.5, /*unlocked=*/rng.Bernoulli(0.5));
  }
  blocks.UpdateUnlocks(/*now=*/static_cast<double>(num_blocks), /*period=*/1.0,
                       /*unlock_steps=*/rng.UniformInt(1, 8));
  // Commit random accepted demands so consumed curves and versions are non-trivial.
  for (size_t b = 0; b < num_blocks; ++b) {
    PrivacyBlock& block = blocks.block(static_cast<BlockId>(b));
    for (int attempt = 0; attempt < 3; ++attempt) {
      RdpCurve demand = capacity.Scaled(rng.Uniform(0.01, 0.4));
      if (block.CanAccept(demand)) {
        block.Commit(demand);
      }
    }
  }

  AllocationMetrics metrics;
  std::vector<Task> pending;
  size_t allocated = static_cast<size_t>(rng.UniformInt(0, 5));
  size_t evicted = static_cast<size_t>(rng.UniformInt(0, 3));
  double checkpoint_time = 100.0;
  for (size_t i = 0; i < num_pending + allocated + evicted; ++i) {
    double weight = rng.Uniform(0.5, 4.0);
    bool fair = rng.Bernoulli(0.3);
    metrics.RecordSubmission(weight, fair);
    if (i < allocated) {
      metrics.RecordAllocation(weight, rng.Uniform(0.0, 20.0), fair);
    } else if (i < allocated + evicted) {
      metrics.RecordEviction(weight);
    } else {
      Task task(static_cast<TaskId>(1000 + i), weight, capacity.Scaled(rng.Uniform(0.01, 0.6)));
      task.arrival_time = rng.Uniform(0.0, checkpoint_time);
      task.timeout = rng.Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                        : rng.Uniform(1.0, 50.0);
      if (num_blocks > 0 && rng.Bernoulli(0.8)) {
        size_t count = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(std::min<size_t>(3, num_blocks))));
        for (size_t idx : rng.SampleWithoutReplacement(num_blocks, count)) {
          task.blocks.push_back(static_cast<BlockId>(idx));
        }
      } else {
        task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 4));
      }
      pending.push_back(std::move(task));
    }
  }
  for (int c = 0; c < 4; ++c) {
    metrics.RecordCycleRuntime(rng.Uniform(1e-5, 1e-2));
  }

  SnapshotMeta meta;
  meta.cycles_completed = static_cast<uint64_t>(rng.UniformInt(1, 200));
  meta.checkpoint_time = checkpoint_time;
  meta.next_cycle_time = checkpoint_time + rng.Uniform(0.0, 5.0);
  meta.period = rng.Uniform(0.5, 5.0);
  meta.unlock_steps = rng.UniformInt(1, 50);
  meta.fair_share_n = rng.UniformInt(1, 50);
  meta.num_shards = num_shards;
  return CaptureSnapshot(blocks, pending, metrics, meta);
}

TEST(CheckpointCodecTest, BinaryRoundTripIsByteIdentical) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    ClusterSnapshot snapshot = RandomSnapshot(seed, 1 + seed % 7, seed % 9);
    ASSERT_EQ(ValidateSnapshot(snapshot), "") << "seed=" << seed;
    std::string encoded = EncodeSnapshotBinary(snapshot);
    SnapshotParseResult parsed = DecodeSnapshotBinary(encoded);
    ASSERT_TRUE(parsed.ok) << "seed=" << seed << ": " << parsed.error;
    // Re-encoding the parsed snapshot reproduces the exact bytes: nothing was lost or
    // renormalized anywhere in the pipeline.
    EXPECT_EQ(EncodeSnapshotBinary(parsed.snapshot), encoded) << "seed=" << seed;
  }
}

TEST(CheckpointCodecTest, NonSnapshotBytesAreRejectedWithDiagnostic) {
  SnapshotParseResult junk = DecodeSnapshotBinary("not a snapshot at all");
  EXPECT_FALSE(junk.ok);
  EXPECT_FALSE(junk.error.empty());
}

TEST(CheckpointCodecTest, EmptyClusterRoundTrips) {
  // Degenerate content: no blocks, no pending tasks, zero metrics — the snapshot of a
  // freshly started (or fully drained and idle) cluster.
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  AllocationMetrics metrics;
  SnapshotMeta meta;
  meta.checkpoint_time = 0.0;
  meta.next_cycle_time = 1.0;
  meta.num_shards = 4;  // More shards than blocks (all clocks zero).
  ClusterSnapshot snapshot = CaptureSnapshot(blocks, {}, metrics, meta);
  ASSERT_EQ(ValidateSnapshot(snapshot), "");
  std::string encoded = EncodeSnapshotBinary(snapshot);
  SnapshotParseResult parsed = DecodeSnapshotBinary(encoded);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(EncodeSnapshotBinary(parsed.snapshot), encoded);
  EXPECT_TRUE(parsed.snapshot.blocks.empty());
}

TEST(CheckpointCodecTest, EveryBinaryTruncationIsRejected) {
  ClusterSnapshot snapshot = RandomSnapshot(31, 3, 4);
  std::string encoded = EncodeSnapshotBinary(snapshot);
  for (size_t len = 0; len < encoded.size(); ++len) {
    SnapshotParseResult parsed = DecodeSnapshotBinary(encoded.substr(0, len));
    ASSERT_FALSE(parsed.ok) << "prefix length " << len;
    ASSERT_FALSE(parsed.error.empty()) << "prefix length " << len;
  }
}

TEST(CheckpointCodecTest, EveryBinaryBitFlipIsRejected) {
  ClusterSnapshot snapshot = RandomSnapshot(32, 3, 3);
  std::string encoded = EncodeSnapshotBinary(snapshot);
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit : {0, 3, 7}) {
      std::string corrupted = encoded;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      SnapshotParseResult parsed = DecodeSnapshotBinary(corrupted);
      ASSERT_FALSE(parsed.ok) << "byte " << byte << " bit " << bit;
      ASSERT_FALSE(parsed.error.empty()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(CheckpointCodecTest, WrongVersionIsRejectedWithDiagnostic) {
  ClusterSnapshot snapshot = RandomSnapshot(34, 2, 2);
  std::string encoded = EncodeSnapshotBinary(snapshot);
  encoded[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // Version field (LE) byte 0.
  SnapshotParseResult parsed = DecodeSnapshotBinary(encoded);
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("version"), std::string::npos) << parsed.error;
}

TEST(CheckpointCodecTest, ValidationCatchesInconsistentStates) {
  auto expect_invalid = [](ClusterSnapshot snapshot, const char* what) {
    std::string error = ValidateSnapshot(snapshot);
    EXPECT_FALSE(error.empty()) << what;
    // An invalid snapshot must also never decode: the encoder will happily frame it, but
    // the decoder re-validates.
    SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(snapshot));
    EXPECT_FALSE(parsed.ok) << what;
  };

  ClusterSnapshot base = RandomSnapshot(36, 3, 3);
  ASSERT_EQ(ValidateSnapshot(base), "");

  {
    ClusterSnapshot s = base;
    s.blocks[1].unlocked_fraction = 1.5;
    expect_invalid(std::move(s), "unlocked fraction > 1");
  }
  {
    ClusterSnapshot s = base;
    s.blocks[0].consumed[2] = -0.25;
    expect_invalid(std::move(s), "negative consumed budget");
  }
  {
    ClusterSnapshot s = base;
    s.blocks[0].consumed[0] = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(std::move(s), "NaN consumed budget");
  }
  {
    ClusterSnapshot s = base;
    s.blocks[2].id = 7;
    expect_invalid(std::move(s), "non-dense block ids");
  }
  {
    ClusterSnapshot s = base;
    s.manager_epoch += 1;
    expect_invalid(std::move(s), "epoch out of step with block count");
  }
  {
    ClusterSnapshot s = base;
    s.shard_clocks[0].version += 1;
    expect_invalid(std::move(s), "shard clock out of step with block versions");
  }
  {
    ClusterSnapshot s = base;
    s.metrics.allocated = s.metrics.submitted + 1;
    expect_invalid(std::move(s), "allocated > submitted");
  }
  {
    ClusterSnapshot s = base;
    s.metrics.submitted += 1;  // Breaks submitted - allocated - evicted == pending.
    expect_invalid(std::move(s), "counts out of step with the pending queue");
  }
  {
    ClusterSnapshot s = base;
    if (!s.pending.empty()) {
      s.pending[0].blocks.push_back(static_cast<BlockId>(s.blocks.size()));
      expect_invalid(std::move(s), "pending task referencing unknown block");
    }
  }
  {
    ClusterSnapshot s = base;
    s.grid_orders[0] = s.grid_orders[1];  // Not strictly increasing.
    expect_invalid(std::move(s), "non-increasing grid orders");
  }
  {
    // Checksum-valid but over budget: a capacity the global guarantee does not allow.
    ClusterSnapshot s = base;
    for (double& cap : s.blocks[0].capacity) {
      cap *= 1000.0;
    }
    expect_invalid(std::move(s), "capacity beyond BlockCapacityCurve(eps_g, delta_g)");
  }
  {
    // Consumption past capacity at every order breaks the filter's "exists alpha".
    ClusterSnapshot s = base;
    SnapshotBlockState& block = s.blocks[0];
    for (size_t a = 0; a < block.consumed.size(); ++a) {
      block.consumed[a] = 5.0 * block.capacity[a] + 1.0;
    }
    expect_invalid(std::move(s), "consumed over capacity at every order");
  }
}

// The budget guarantee a restored manager must hold: every block's capacity within what
// (eps_g, delta_g) allows, and its consumption within capacity at some usable order unless
// nothing was charged — both up to PrivacyBlock::CanAccept's slack.
void ExpectWithinBudget(const BlockManager& blocks) {
  RdpCurve max_capacity = BlockCapacityCurve(blocks.grid(), blocks.eps_g(), blocks.delta_g());
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    const PrivacyBlock& block = blocks.block(static_cast<BlockId>(j));
    bool charged = false;
    bool within_some_order = false;
    for (size_t a = 0; a < max_capacity.size(); ++a) {
      double bound = max_capacity.epsilon(a);
      double cap = block.capacity().epsilon(a);
      double consumed = block.consumed().epsilon(a);
      EXPECT_LE(cap, bound + 1e-9 * (1.0 + bound)) << "block " << j << " order " << a;
      charged = charged || consumed != 0.0;
      within_some_order =
          within_some_order || (cap > 0.0 && consumed <= cap + 1e-9 * (1.0 + cap));
    }
    EXPECT_TRUE(!charged || within_some_order) << "block " << j;
  }
}

// Binary snapshot framing: magic, format version, payload length; an 8-byte checksum
// follows the payload.
constexpr size_t kHeaderBytes = 8 + 4 + 8;

// Rebuilds a binary snapshot around `payload` with a correct length field and checksum, so
// the mutated bytes reach the field decoder instead of dying at the FNV-1a check.
std::string FrameSnapshotPayload(std::string_view original, std::string_view payload) {
  BinaryWriter out;
  out.Bytes(original.substr(0, kHeaderBytes - 8));  // Magic and format version.
  out.U64(payload.size());
  out.Bytes(payload);
  out.U64(Fnv1a64(payload));
  return std::move(out.data());
}

// Applies 1-8 random byte flips, inserts, or deletes inside the payload of `encoded`,
// repairs the frame, and checks the decoder's contract on the result. Returns whether the
// mutated snapshot was accepted.
bool RunMutationIteration(const std::string& encoded, uint64_t seed) {
  SCOPED_TRACE("mutation seed=" + std::to_string(seed) +
               " (replay: DPACK_FUZZ_REPLAY_SEED=" + std::to_string(seed) + ")");
  Rng rng(seed);
  std::string payload = encoded.substr(kHeaderBytes, encoded.size() - kHeaderBytes - 8);
  int64_t mutations = rng.UniformInt(1, 8);
  for (int64_t m = 0; m < mutations; ++m) {
    int64_t kind = rng.UniformInt(0, 2);
    if (payload.empty()) {
      kind = 1;  // Only an insert applies to an empty payload.
    }
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(payload.size()) - (kind == 1 ? 0 : 1)));
    char byte = static_cast<char>(rng.UniformInt(1, 255));
    if (kind == 0) {
      payload[pos] = static_cast<char>(payload[pos] ^ byte);
    } else if (kind == 1) {
      payload.insert(pos, 1, byte);
    } else {
      payload.erase(pos, 1);
    }
  }
  std::string mutated = FrameSnapshotPayload(encoded, payload);
  SnapshotParseResult parsed = DecodeSnapshotBinary(mutated);
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty());
    return false;
  }
  EXPECT_EQ(ValidateSnapshot(parsed.snapshot), "");
  EXPECT_EQ(EncodeSnapshotBinary(parsed.snapshot), mutated);
  ExpectWithinBudget(RestoreBlockManager(parsed.snapshot));
  return true;
}

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

TEST(CheckpointCodecTest, ChecksumRepairedMutationsAreRejectedOrExact) {
  // Bit flips alone never get past the checksum (EveryBinaryBitFlipIsRejected); repairing
  // the length and checksum after mutating drives the field decoder itself: count bounds,
  // the retired flag, trailing bytes, and the validation behind them.
  std::string encoded = EncodeSnapshotBinary(RandomSnapshot(51, 4, 3));
  if (const char* replay = std::getenv("DPACK_FUZZ_REPLAY_SEED")) {
    RunMutationIteration(encoded, static_cast<uint64_t>(std::atoll(replay)));
    return;
  }
  constexpr uint64_t kBaseSeed = 7700;
  size_t accepted = 0;
  size_t iterations = MutationIterations();
  for (size_t i = 0; i < iterations; ++i) {
    accepted += RunMutationIteration(encoded, kBaseSeed + i) ? 1 : 0;
    if (testing::Test::HasFailure()) {
      return;  // The SCOPED_TRACE of the failing seed is in the log.
    }
  }
  // Both outcomes must occur, or the test is not reaching past one of the two gates.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, iterations);
}

TEST(CheckpointCodecTest, RestoreRebuildsByteIdenticalManager) {
  ClusterSnapshot snapshot = RandomSnapshot(41, 5, 4);
  BlockManager restored = RestoreBlockManager(snapshot);
  EXPECT_EQ(restored.epoch(), snapshot.manager_epoch);
  EXPECT_EQ(restored.block_count(), snapshot.blocks.size());
  EXPECT_EQ(restored.eps_g(), snapshot.eps_g);
  EXPECT_EQ(restored.delta_g(), snapshot.delta_g);
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    const PrivacyBlock& block = restored.block(static_cast<BlockId>(j));
    const SnapshotBlockState& state = snapshot.blocks[j];
    EXPECT_EQ(block.version(), state.version) << "block " << j;
    EXPECT_EQ(block.arrival_time(), state.arrival_time) << "block " << j;
    EXPECT_EQ(block.unlocked_fraction(), state.unlocked_fraction) << "block " << j;
    for (size_t a = 0; a < state.capacity.size(); ++a) {
      EXPECT_EQ(block.capacity().epsilon(a), state.capacity[a]) << "block " << j;
      EXPECT_EQ(block.consumed().epsilon(a), state.consumed[a]) << "block " << j;
    }
  }
  // A re-capture of the restored state is byte-identical to the original snapshot.
  std::vector<Task> pending = RestorePendingTasks(snapshot, restored.grid());
  AllocationMetrics metrics = RestoreMetrics(snapshot.metrics);
  ClusterSnapshot recaptured = CaptureSnapshot(restored, pending, metrics, snapshot.meta);
  EXPECT_EQ(EncodeSnapshotBinary(recaptured), EncodeSnapshotBinary(snapshot));
}

TEST(CheckpointCodecTest, RestoreMetricsReproducesAccessors) {
  ClusterSnapshot snapshot = RandomSnapshot(42, 2, 5);
  AllocationMetrics metrics = RestoreMetrics(snapshot.metrics);
  const SnapshotMetricsState& m = snapshot.metrics;
  EXPECT_EQ(metrics.submitted(), m.submitted);
  EXPECT_EQ(metrics.allocated(), m.allocated);
  EXPECT_EQ(metrics.evicted(), m.evicted);
  EXPECT_EQ(metrics.submitted_weight(), m.submitted_weight);
  EXPECT_EQ(metrics.allocated_weight(), m.allocated_weight);
  EXPECT_EQ(metrics.submitted_fair_share(), m.submitted_fair_share);
  EXPECT_EQ(metrics.allocated_fair_share(), m.allocated_fair_share);
  ASSERT_EQ(metrics.delays().samples(), m.delay_samples);
  RunningStat::State runtime = metrics.cycle_runtime_seconds().state();
  EXPECT_EQ(runtime.count, m.cycle_runtime.count);
  EXPECT_EQ(runtime.mean, m.cycle_runtime.mean);
  EXPECT_EQ(runtime.m2, m.cycle_runtime.m2);
  EXPECT_EQ(runtime.min, m.cycle_runtime.min);
  EXPECT_EQ(runtime.max, m.cycle_runtime.max);
  EXPECT_EQ(runtime.sum, m.cycle_runtime.sum);
}

}  // namespace
}  // namespace dpack
