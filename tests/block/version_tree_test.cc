// Unit pins for the two-level version clock (ISSUE 6): group sums must equal the sum of
// member versions under every mutation path — commits, unlocks, restore seeding, clones,
// and slab compaction — because every O(changed) consumer (the incremental engine's
// SyncBlocks, the retirement sweep) trusts the sums to locate dirty blocks without a scan.

#include "src/block/version_tree.h"

#include <gtest/gtest.h>

#include "src/block/block_manager.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

// The invariant every consumer relies on: group_sum(g) == sum of member versions, and
// total() == sum of group sums.
void ExpectTreeMatchesBlocks(const BlockManager& manager) {
  const BlockVersionTree& tree = manager.version_tree();
  std::vector<uint64_t> expected(tree.group_count(), 0);
  uint64_t total = 0;
  for (size_t j = 0; j < manager.block_count(); ++j) {
    uint64_t version = manager.block(static_cast<BlockId>(j)).version();
    size_t group = BlockVersionTree::GroupOf(static_cast<int64_t>(j));
    ASSERT_LT(group, expected.size());
    expected[group] += version;
    total += version;
  }
  EXPECT_EQ(tree.total(), total);
  for (size_t g = 0; g < tree.group_count(); ++g) {
    EXPECT_EQ(tree.group_sum(g), expected[g]) << "group " << g;
  }
}

TEST(BlockVersionTreeTest, GroupOfPartitionsIdsInRunsOf64) {
  EXPECT_EQ(BlockVersionTree::GroupOf(0), 0u);
  EXPECT_EQ(BlockVersionTree::GroupOf(63), 0u);
  EXPECT_EQ(BlockVersionTree::GroupOf(64), 1u);
  EXPECT_EQ(BlockVersionTree::GroupOf(1000000), 1000000u >> BlockVersionTree::kGroupShift);
}

TEST(BlockVersionTreeTest, BumpsAccumulateIntoTheOwningGroup) {
  BlockVersionTree tree;
  tree.Track(0);
  tree.Track(70);
  tree.OnBump(0);
  tree.OnBump(0);
  tree.OnBump(70);
  EXPECT_EQ(tree.total(), 3u);
  EXPECT_EQ(tree.group_sum(0), 2u);
  EXPECT_EQ(tree.group_sum(1), 1u);
}

TEST(BlockVersionTreeTest, SeedVersionFoldsRestoredVersions) {
  BlockVersionTree tree;
  tree.SeedVersion(5, 17);
  tree.SeedVersion(66, 4);
  EXPECT_EQ(tree.total(), 21u);
  EXPECT_EQ(tree.group_sum(0), 17u);
  EXPECT_EQ(tree.group_sum(1), 4u);
}

TEST(BlockVersionTreeTest, ManagerMaintainsSumsAcrossCommitsAndUnlocks) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  for (int i = 0; i < 130; ++i) {  // Spans three groups.
    manager.AddBlock(static_cast<double>(i) * 0.1);
  }
  ExpectTreeMatchesBlocks(manager);

  manager.UpdateUnlocks(/*now=*/5.0, /*period=*/1.0, /*unlock_steps=*/4);
  ExpectTreeMatchesBlocks(manager);

  // Charge a small uniform demand to a few blocks across different groups.
  std::vector<double> eps(Grid()->orders().size(), 0.01);
  RdpCurve small(Grid(), eps);
  for (BlockId id : {BlockId{0}, BlockId{63}, BlockId{64}, BlockId{129}}) {
    if (manager.block(id).CanAccept(small)) {
      manager.block(id).Commit(small);
    }
  }
  ExpectTreeMatchesBlocks(manager);
}

TEST(BlockVersionTreeTest, CloneAndRestoreReproduceTheSums) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  for (int i = 0; i < 70; ++i) {
    manager.AddBlock(0.0, /*unlocked=*/true);
  }
  std::vector<double> eps(Grid()->orders().size(), 0.05);
  RdpCurve small(Grid(), eps);
  manager.block(3).Commit(small);
  manager.block(68).Commit(small);

  BlockManager clone = manager.Clone();
  ExpectTreeMatchesBlocks(clone);
  EXPECT_EQ(clone.version_tree().total(), manager.version_tree().total());

  // A clone's bumps flow into the clone's tree, not the original's.
  clone.block(3).Commit(small);
  ExpectTreeMatchesBlocks(clone);
  ExpectTreeMatchesBlocks(manager);
  EXPECT_EQ(clone.version_tree().total(), manager.version_tree().total() + 1);
}

TEST(BlockVersionTreeTest, SumsSurviveSlabCompaction) {
  BlockManager manager(Grid(), 10.0, 1e-7);
  for (int i = 0; i < 10; ++i) {
    manager.AddBlock(0.0, /*unlocked=*/true);
  }
  // Exhaust a few blocks exactly: capacity-proportional demand, two halves.
  std::vector<double> half = manager.block(0).capacity().epsilons();
  for (double& e : half) {
    e *= 0.5;
  }
  RdpCurve half_curve(Grid(), half);
  for (BlockId id : {BlockId{2}, BlockId{7}}) {
    manager.block(id).Commit(half_curve);
    manager.block(id).Commit(half_curve);
    EXPECT_TRUE(manager.block(id).Exhausted());
  }
  EXPECT_EQ(manager.RetireNewlyExhausted(), 2u);
  EXPECT_EQ(manager.retired_count(), 2u);
  ExpectTreeMatchesBlocks(manager);
}

}  // namespace
}  // namespace dpack
