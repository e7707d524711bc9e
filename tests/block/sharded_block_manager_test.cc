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

  // Member counts are the absorbed arrivals; arrivals are new, not changed.
  EXPECT_EQ(partition.shard_members(0).size(), 4u);
  EXPECT_EQ(partition.shard_members(1).size(), 3u);
  EXPECT_EQ(partition.shard_members(2).size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(partition.shard_changed(s).empty());
  }
}

TEST(ShardedBlockManagerTest, ChangedListsNameExactlyTheTouchedBlock) {
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 6; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  ShardedBlockManager partition(&blocks, 2);
  partition.Sync();
  partition.Sync();  // No change since the previous sync: everything clean.
  EXPECT_TRUE(partition.shard_changed(0).empty());
  EXPECT_TRUE(partition.shard_changed(1).empty());

  // A commit to block 3 (shard 1) lists exactly that block, and nothing in shard 0.
  blocks.block(3).Commit(GaussianCurve(Grid(), 20.0));
  partition.Sync();
  EXPECT_TRUE(partition.shard_changed(0).empty());
  EXPECT_EQ(partition.shard_changed(1), (std::vector<BlockId>{3}));
  EXPECT_EQ(partition.shard_members(0).size(), 3u);
  EXPECT_EQ(partition.shard_members(1).size(), 3u);

  // The next Sync clears the lists again.
  partition.Sync();
  EXPECT_TRUE(partition.shard_changed(1).empty());
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
  EXPECT_EQ(partition.shard_members(0), (std::vector<BlockId>{0}));
  EXPECT_TRUE(partition.shard_members(3).empty());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(partition.shard_changed(s).empty());  // Arrivals only; nothing changed.
  }
}

TEST(ShardedBlockManagerTest, LocalIndicesAreDenseAndChangesExact) {
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
  // lists) size off members.size() and rely on this.
  for (size_t s = 0; s < 3; ++s) {
    const std::vector<BlockId>& members = partition.shard_members(s);
    for (size_t rank = 0; rank < members.size(); ++rank) {
      EXPECT_EQ(partition.LocalIndex(members[rank]), rank)
          << "shard " << s << " member " << members[rank];
      EXPECT_EQ(partition.ShardOf(members[rank]), s);
    }
  }
  // Blocks 100 and 101 live in shards 1 and 2; shard 0 stayed clean.
  EXPECT_TRUE(partition.shard_changed(0).empty());
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
  blocks.block(2).Commit(GaussianCurve(Grid(), 20.0));
  partition.Sync();
  EXPECT_EQ(partition.shard_changed(0), (std::vector<BlockId>{2}));
}

}  // namespace
}  // namespace dpack
