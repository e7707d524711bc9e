#include "src/block/block_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace dpack {

BlockManager::BlockManager(AlphaGridPtr grid, double eps_g, double delta_g)
    : grid_(std::move(grid)),
      eps_g_(eps_g),
      delta_g_(delta_g),
      version_tree_(std::make_unique<BlockVersionTree>()) {
  DPACK_CHECK(grid_ != nullptr);
}

BlockId BlockManager::AddBlock(double arrival_time, bool unlocked) {
  return AddBlockWithCapacity(BlockCapacityCurve(grid_, eps_g_, delta_g_), arrival_time,
                              unlocked);
}

BlockId BlockManager::AddBlockWithCapacity(RdpCurve capacity, double arrival_time,
                                           bool unlocked) {
  DPACK_CHECK_MSG(SameGrid(capacity.grid(), grid_), "capacity grid mismatch");
  BlockId id = static_cast<BlockId>(blocks_.size());
  blocks_.push_back(
      PrivacyBlock(id, std::move(capacity), arrival_time, unlocked ? 1.0 : 0.0));
  blocks_.back().set_version_sink(version_tree_.get());
  version_tree_->Track(id);
  if (!unlocked) {
    unlocking_ids_.push_back(id);
  }
  ++epoch_;
  return id;
}

PrivacyBlock& BlockManager::block(BlockId id) {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < blocks_.size());
  return blocks_[static_cast<size_t>(id)];
}

const PrivacyBlock& BlockManager::block(BlockId id) const {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < blocks_.size());
  return blocks_[static_cast<size_t>(id)];
}

size_t BlockManager::retired_count() const {
  size_t count = 0;
  for (const PrivacyBlock& block : blocks_) {
    count += block.unlocked_fraction() >= 1.0 && block.Exhausted() ? 1 : 0;
  }
  return count;
}

std::vector<BlockId> BlockManager::MostRecentBlocks(size_t n) const {
  // Ids are dense and assigned in arrival order, so the most recent n are the last n ids —
  // O(n), independent of the total block count (pinned by block_manager_test).
  size_t total = blocks_.size();
  size_t count = std::min(n, total);
  std::vector<BlockId> ids;
  ids.reserve(count);
  for (size_t i = total - count; i < total; ++i) {
    ids.push_back(static_cast<BlockId>(i));
  }
  return ids;
}

BlockManager BlockManager::Clone() const {
  BlockManager copy(grid_, eps_g_, delta_g_);
  copy.epoch_ = epoch_;
  *copy.version_tree_ = *version_tree_;
  copy.blocks_ = blocks_;  // Element copies detach from this manager's tree...
  for (PrivacyBlock& block : copy.blocks_) {
    block.set_version_sink(copy.version_tree_.get());  // ...and re-attach to the clone's.
  }
  copy.unlocking_ids_ = unlocking_ids_;
  return copy;
}

BlockManager BlockManager::Restore(AlphaGridPtr grid, double eps_g, double delta_g,
                                   uint64_t epoch, std::vector<PrivacyBlock> blocks) {
  DPACK_CHECK_MSG(epoch == blocks.size(), "restore epoch must equal the block count");
  BlockManager manager(std::move(grid), eps_g, delta_g);
  manager.epoch_ = epoch;
  manager.blocks_ = std::move(blocks);
  // Rebuild the derived state in id order so it is deterministic: the version tree's sums
  // (a pure function of block versions) and the unlock work list.
  for (size_t i = 0; i < manager.blocks_.size(); ++i) {
    PrivacyBlock& block = manager.blocks_[i];
    BlockId id = static_cast<BlockId>(i);
    DPACK_CHECK_MSG(block.id() == id, "restore block ids must be dense and ordered");
    DPACK_CHECK_MSG(SameGrid(block.grid(), manager.grid_), "restore block grid mismatch");
    block.set_version_sink(manager.version_tree_.get());
    manager.version_tree_->SeedVersion(id, block.version());
    if (block.unlocked_fraction() < 1.0) {
      manager.unlocking_ids_.push_back(id);
    }
  }
  return manager;
}

void BlockManager::UpdateUnlocks(double now, double period, int64_t unlock_steps) {
  DPACK_CHECK(period > 0.0);
  DPACK_CHECK(unlock_steps >= 1);
  // Only blocks still below full unlock can change; the rule is per-block and monotone, so
  // processing the work list in any order gives the same state and the same version bumps.
  for (size_t i = 0; i < unlocking_ids_.size();) {
    PrivacyBlock& block = this->block(unlocking_ids_[i]);
    double age = now - block.arrival_time();
    if (age >= 0.0) {
      // Number of scheduling steps the block has witnessed, including the current one: a
      // block arriving at a cycle instant counts that cycle (floor(age/T) + 1), matching the
      // paper's ceil((t - t_j)/T) convention for blocks arriving strictly between cycles.
      int64_t steps = static_cast<int64_t>(std::floor(age / period)) + 1;
      steps = std::min(steps, unlock_steps);
      block.SetUnlockedFraction(static_cast<double>(steps) /
                                static_cast<double>(unlock_steps));
    }
    if (block.unlocked_fraction() >= 1.0) {
      unlocking_ids_[i] = unlocking_ids_.back();  // Fully unlocked: leaves the list forever.
      unlocking_ids_.pop_back();
    } else {
      ++i;
    }
  }
}

}  // namespace dpack
