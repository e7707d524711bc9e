#include "src/block/block_manager.h"

#include <gtest/gtest.h>

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

TEST(BlockManagerTest, AddBlockAssignsDenseIds) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  EXPECT_EQ(manager.AddBlock(0.0), 0);
  EXPECT_EQ(manager.AddBlock(1.0), 1);
  EXPECT_EQ(manager.AddBlock(2.0), 2);
  EXPECT_EQ(manager.block_count(), 3u);
  EXPECT_DOUBLE_EQ(manager.block(1).arrival_time(), 1.0);
}

TEST(BlockManagerTest, BlocksStartLockedUnlessRequested) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  manager.AddBlock(0.0);
  manager.AddBlock(0.0, /*unlocked=*/true);
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(manager.block(1).unlocked_fraction(), 1.0);
}

TEST(BlockManagerTest, MostRecentBlocks) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  for (int i = 0; i < 5; ++i) {
    manager.AddBlock(static_cast<double>(i));
  }
  std::vector<BlockId> recent = manager.MostRecentBlocks(3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0], 2);
  EXPECT_EQ(recent[2], 4);
  // Asking for more than exist returns all.
  EXPECT_EQ(manager.MostRecentBlocks(100).size(), 5u);
}

TEST(BlockManagerTest, UnlockScheduleMatchesPaperFormula) {
  // unlocked = min(steps witnessed incl. current, N) / N, steps = floor((t - t_j)/T) + 1.
  BlockManager manager(Grid(), 10.0, 1e-7);
  manager.AddBlock(0.0);
  manager.UpdateUnlocks(/*now=*/0.0, /*period=*/1.0, /*unlock_steps=*/10);
  // Age 0: the block has witnessed its first scheduling step.
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 0.1);
  manager.UpdateUnlocks(3.0, 1.0, 10);
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 0.4);
  manager.UpdateUnlocks(9.5, 1.0, 10);
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 1.0);
  manager.UpdateUnlocks(100.0, 1.0, 10);
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 1.0);
}

TEST(BlockManagerTest, UnlockHonorsBlockArrivalTime) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  manager.AddBlock(5.0);
  manager.UpdateUnlocks(5.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 0.25);
  manager.UpdateUnlocks(7.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(manager.block(0).unlocked_fraction(), 0.75);
}

TEST(BlockManagerTest, EpochAdvancesOnEveryArrival) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  EXPECT_EQ(manager.epoch(), 0u);
  manager.AddBlock(0.0);
  EXPECT_EQ(manager.epoch(), 1u);
  manager.AddBlockWithCapacity(BlockCapacityCurve(Grid(), 10.0, 1e-7), 1.0);
  EXPECT_EQ(manager.epoch(), 2u);
}

TEST(BlockManagerTest, UpdateUnlocksBumpsVersionsOnlyOnEffectiveChange) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  manager.AddBlock(0.0);
  uint64_t v0 = manager.block(0).version();
  manager.UpdateUnlocks(0.0, 1.0, 10);  // 0 -> 0.1: effective.
  uint64_t v1 = manager.block(0).version();
  EXPECT_GT(v1, v0);
  manager.UpdateUnlocks(0.0, 1.0, 10);  // Same fraction: no change.
  EXPECT_EQ(manager.block(0).version(), v1);
  manager.UpdateUnlocks(5.0, 1.0, 10);  // 0.1 -> 0.6: effective.
  EXPECT_GT(manager.block(0).version(), v1);
}

TEST(BlockManagerTest, ClonePreservesEpochAndVersions) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  manager.AddBlock(0.0, /*unlocked=*/true);
  manager.AddBlock(1.0);
  manager.UpdateUnlocks(3.0, 1.0, 10);
  manager.block(0).Commit(BlockCapacityCurve(Grid(), 10.0, 1e-7).Scaled(0.1));

  BlockManager clone = manager.Clone();
  EXPECT_EQ(clone.epoch(), manager.epoch());
  for (BlockId j = 0; j < 2; ++j) {
    EXPECT_EQ(clone.block(j).version(), manager.block(j).version());
    EXPECT_DOUBLE_EQ(clone.block(j).unlocked_fraction(),
                     manager.block(j).unlocked_fraction());
  }
}

TEST(BlockManagerCloneTest, CloneIsIndependentDeepCopy) {
  BlockManager original(Grid(), 10.0, 1e-7);
  original.AddBlock(0.0, /*unlocked=*/true);
  RdpCurve demand = BlockCapacityCurve(Grid(), 10.0, 1e-7).Scaled(0.3);
  original.block(0).Commit(demand);

  BlockManager copy = original.Clone();
  ASSERT_EQ(copy.block_count(), 1u);
  size_t i64 = Grid()->IndexOf(64.0);
  EXPECT_DOUBLE_EQ(copy.block(0).consumed().epsilon(i64),
                   original.block(0).consumed().epsilon(i64));
  // Mutating the copy leaves the original untouched.
  copy.block(0).Commit(demand);
  EXPECT_NE(copy.block(0).consumed().epsilon(i64),
            original.block(0).consumed().epsilon(i64));
}

TEST(BlockManagerTest, LargerPeriodUnlocksMoreSlowly) {
  // Just before t = 5: with period T = 5 the block has witnessed one step; with T = 1 it
  // has witnessed five.
  BlockManager a(Grid(), 10.0, 1e-7);
  a.AddBlock(0.0);
  a.UpdateUnlocks(4.9, 5.0, 10);
  EXPECT_DOUBLE_EQ(a.block(0).unlocked_fraction(), 0.1);

  BlockManager b(Grid(), 10.0, 1e-7);
  b.AddBlock(0.0);
  b.UpdateUnlocks(4.9, 1.0, 10);
  EXPECT_DOUBLE_EQ(b.block(0).unlocked_fraction(), 0.5);
}

}  // namespace
}  // namespace dpack
