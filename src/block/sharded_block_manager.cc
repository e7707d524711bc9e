#include "src/block/sharded_block_manager.h"

#include "src/common/check.h"

namespace dpack {

ShardedBlockManager::ShardedBlockManager(BlockManager* blocks, size_t num_shards)
    : blocks_(blocks), shards_(num_shards) {
  DPACK_CHECK(blocks_ != nullptr);
  DPACK_CHECK_MSG(num_shards >= 1, "ShardedBlockManager needs at least one shard");
}

size_t ShardedBlockManager::Sync() {
  size_t count = blocks_->block_count();
  DPACK_CHECK_MSG(count >= known_, "blocks disappeared: use a fresh partition per manager");
  for (Shard& shard : shards_) {
    shard.changed.clear();
  }
  size_t added = count - known_;
  last_block_version_.resize(count, 0);
  for (size_t g = known_; g < count; ++g) {
    shards_[ShardOf(static_cast<BlockId>(g))].members.push_back(static_cast<BlockId>(g));
    // Record the version at absorption (nonzero when the partition was built over a
    // restored manager) so the group drill-down below does not re-report arrivals.
    last_block_version_[g] = blocks_->block(static_cast<BlockId>(g)).version();
  }
  known_ = count;

  // Drill into groups whose version sum advanced; within them, only blocks whose recorded
  // version moved are changed. O(groups + changed) instead of O(members) per shard.
  const BlockVersionTree& tree = blocks_->version_tree();
  group_seen_.resize(tree.group_count(), 0);
  for (size_t g = 0; g < group_seen_.size(); ++g) {
    uint64_t sum = tree.group_sum(g);
    if (sum == group_seen_[g]) {
      continue;
    }
    group_seen_[g] = sum;
    size_t begin = g << BlockVersionTree::kGroupShift;
    size_t end = std::min(begin + (size_t{1} << BlockVersionTree::kGroupShift), count);
    for (size_t i = begin; i < end; ++i) {
      uint64_t version = blocks_->block(static_cast<BlockId>(i)).version();
      if (version == last_block_version_[i]) {
        continue;
      }
      last_block_version_[i] = version;
      shards_[ShardOf(static_cast<BlockId>(i))].changed.push_back(static_cast<BlockId>(i));
    }
  }
  return added;
}

}  // namespace dpack
