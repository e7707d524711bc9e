#include "src/block/sharded_block_manager.h"

#include <gtest/gtest.h>

#include "src/rdp/mechanisms.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

TEST(ShardedBlockManagerTest, RoundRobinPartition) {
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 10; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  ShardedBlockManager partition(&blocks, 3);
  EXPECT_EQ(partition.Sync(), 10u);
  EXPECT_EQ(partition.known_blocks(), 10u);

  // Block g lands in shard g mod 3 at local index g / 3.
  EXPECT_EQ(partition.shard_members(0), (std::vector<BlockId>{0, 3, 6, 9}));
  EXPECT_EQ(partition.shard_members(1), (std::vector<BlockId>{1, 4, 7}));
  EXPECT_EQ(partition.shard_members(2), (std::vector<BlockId>{2, 5, 8}));
  EXPECT_EQ(partition.ShardOf(7), 1u);
  EXPECT_EQ(partition.LocalIndex(7), 2u);

  // Per-shard epochs count absorbed arrivals.
  EXPECT_EQ(partition.shard_epoch(0), 4u);
  EXPECT_EQ(partition.shard_epoch(1), 3u);
  EXPECT_EQ(partition.shard_epoch(2), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(partition.shard_dirty(s));  // First sync absorbed arrivals everywhere.
  }
}

TEST(ShardedBlockManagerTest, VersionSumsDetectExactlyTheTouchedShard) {
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 6; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  ShardedBlockManager partition(&blocks, 2);
  partition.Sync();
  partition.Sync();  // No change since the previous sync: everything clean.
  EXPECT_FALSE(partition.shard_dirty(0));
  EXPECT_FALSE(partition.shard_dirty(1));

  // A commit to block 3 (shard 1) bumps only that shard's version sum.
  uint64_t v0 = partition.shard_version(0);
  uint64_t v1 = partition.shard_version(1);
  blocks.block(3).Commit(GaussianCurve(Grid(), 20.0));
  partition.Sync();
  EXPECT_FALSE(partition.shard_dirty(0));
  EXPECT_TRUE(partition.shard_dirty(1));
  EXPECT_EQ(partition.shard_version(0), v0);
  EXPECT_GT(partition.shard_version(1), v1);
}

TEST(ShardedBlockManagerTest, AbsorbsOnlineArrivalsIncrementally) {
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  blocks.AddBlock(0.0, /*unlocked=*/true);
  ShardedBlockManager partition(&blocks, 4);
  EXPECT_EQ(partition.Sync(), 1u);

  blocks.AddBlock(1.0);
  blocks.AddBlock(2.0);
  EXPECT_EQ(partition.Sync(), 2u);
  EXPECT_EQ(partition.known_blocks(), 3u);
  EXPECT_EQ(partition.shard_members(1), (std::vector<BlockId>{1}));
  EXPECT_EQ(partition.shard_members(2), (std::vector<BlockId>{2}));
  EXPECT_TRUE(partition.shard_dirty(1));
  EXPECT_TRUE(partition.shard_dirty(2));
  EXPECT_FALSE(partition.shard_dirty(0));  // Shard 0's block is unchanged.
  EXPECT_TRUE(partition.shard_members(3).empty());
  EXPECT_EQ(partition.shard_epoch(3), 0u);
}

TEST(ShardedBlockManagerTest, LocalIndicesAreDenseAndVersionSumsExact) {
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 200; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  ShardedBlockManager partition(&blocks, 3);
  EXPECT_EQ(partition.Sync(), 200u);
  blocks.block(100).Commit(GaussianCurve(Grid(), 20.0));
  blocks.block(101).Commit(GaussianCurve(Grid(), 20.0));
  partition.Sync();

  // Local indices are dense per shard — exactly 0..members-1, matching each member's rank
  // in the shard's (ascending) member list. The engine's local-indexed buffers (requester
  // lists) size off members.size() and rely on this. Each shard's version is exactly the
  // sum of its members' versions (the checkpoint codec re-derives and cross-checks it).
  for (size_t s = 0; s < 3; ++s) {
    const std::vector<BlockId>& members = partition.shard_members(s);
    uint64_t version_sum = 0;
    for (size_t rank = 0; rank < members.size(); ++rank) {
      EXPECT_EQ(partition.LocalIndex(members[rank]), rank)
          << "shard " << s << " member " << members[rank];
      EXPECT_EQ(partition.ShardOf(members[rank]), s);
      version_sum += blocks.block(members[rank]).version();
    }
    EXPECT_EQ(partition.shard_version(s), version_sum) << "shard " << s;
  }
  // Blocks 100 and 101 live in shards 1 and 2; shard 0 stayed clean.
  EXPECT_FALSE(partition.shard_dirty(0));
  EXPECT_EQ(partition.shard_changed(1), (std::vector<BlockId>{100}));
  EXPECT_EQ(partition.shard_changed(2), (std::vector<BlockId>{101}));
}

TEST(ShardedBlockManagerTest, SingleShardOwnsEverything) {
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 5; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  ShardedBlockManager partition(&blocks, 1);
  partition.Sync();
  EXPECT_EQ(partition.shard_members(0).size(), 5u);
  EXPECT_EQ(partition.shard_epoch(0), 5u);
}

}  // namespace
}  // namespace dpack
