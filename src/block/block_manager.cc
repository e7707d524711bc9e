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
  BlockId id = static_cast<BlockId>(slot_of_id_.size());
  hot_.push_back(
      PrivacyBlock(id, std::move(capacity), arrival_time, unlocked ? 1.0 : 0.0));
  hot_.back().set_version_sink(version_tree_.get());
  version_tree_->Track(id);
  slot_of_id_.push_back(hot_.size() - 1);
  if (!unlocked) {
    unlocking_ids_.push_back(id);
  }
  ++epoch_;
  return id;
}

PrivacyBlock& BlockManager::block(BlockId id) {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < slot_of_id_.size());
  uint64_t slot = slot_of_id_[static_cast<size_t>(id)];
  return (slot & kRetiredTierBit) != 0 ? retired_[slot & ~kRetiredTierBit] : hot_[slot];
}

const PrivacyBlock& BlockManager::block(BlockId id) const {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < slot_of_id_.size());
  uint64_t slot = slot_of_id_[static_cast<size_t>(id)];
  return (slot & kRetiredTierBit) != 0 ? retired_[slot & ~kRetiredTierBit] : hot_[slot];
}

bool BlockManager::retired(BlockId id) const {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < slot_of_id_.size());
  return (slot_of_id_[static_cast<size_t>(id)] & kRetiredTierBit) != 0;
}

BlockPlacement BlockManager::placement_of(BlockId id) const {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < slot_of_id_.size());
  uint64_t slot = slot_of_id_[static_cast<size_t>(id)];
  return BlockPlacement{(slot & kRetiredTierBit) != 0, slot & ~kRetiredTierBit};
}

std::vector<BlockId> BlockManager::MostRecentBlocks(size_t n) const {
  // Ids are dense and assigned in arrival order, so the most recent n are the last n ids —
  // O(n), independent of the total block count (pinned by block_manager_test).
  size_t total = slot_of_id_.size();
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
  copy.hot_ = hot_;          // Element copies detach from this manager's tree...
  copy.retired_ = retired_;
  for (PrivacyBlock& block : copy.hot_) {
    block.set_version_sink(copy.version_tree_.get());  // ...and re-attach to the clone's.
  }
  for (PrivacyBlock& block : copy.retired_) {
    block.set_version_sink(copy.version_tree_.get());
  }
  copy.slot_of_id_ = slot_of_id_;
  copy.unlocking_ids_ = unlocking_ids_;
  copy.retire_group_seen_ = retire_group_seen_;
  return copy;
}

BlockManager BlockManager::Restore(AlphaGridPtr grid, double eps_g, double delta_g,
                                   uint64_t epoch, std::vector<PrivacyBlock> blocks,
                                   std::vector<BlockPlacement> placements) {
  DPACK_CHECK_MSG(epoch == blocks.size(), "restore epoch must equal the block count");
  if (placements.empty()) {
    placements.assign(blocks.size(), BlockPlacement{});
    for (size_t i = 0; i < placements.size(); ++i) {
      placements[i].slot = i;
    }
  }
  DPACK_CHECK_MSG(placements.size() == blocks.size(),
                  "restore placements must parallel the blocks");

  BlockManager manager(std::move(grid), eps_g, delta_g);
  manager.epoch_ = epoch;

  // Each tier's slots must form a dense permutation; invert them to place blocks.
  size_t hot_count = 0;
  for (const BlockPlacement& p : placements) {
    hot_count += p.retired ? 0 : 1;
  }
  std::vector<size_t> id_at_hot_slot(hot_count, blocks.size());
  std::vector<size_t> id_at_retired_slot(blocks.size() - hot_count, blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    DPACK_CHECK_MSG(blocks[i].id() == static_cast<BlockId>(i),
                    "restore block ids must be dense and ordered");
    DPACK_CHECK_MSG(SameGrid(blocks[i].grid(), manager.grid_),
                    "restore block grid mismatch");
    std::vector<size_t>& tier = placements[i].retired ? id_at_retired_slot : id_at_hot_slot;
    DPACK_CHECK_MSG(placements[i].slot < tier.size(),
                    "restore placement slot out of range");
    DPACK_CHECK_MSG(tier[placements[i].slot] == blocks.size(),
                    "restore placement slots must be unique per tier");
    tier[placements[i].slot] = i;
  }

  manager.hot_.reserve(hot_count);
  for (size_t slot = 0; slot < id_at_hot_slot.size(); ++slot) {
    manager.hot_.push_back(std::move(blocks[id_at_hot_slot[slot]]));
    manager.hot_.back().set_version_sink(manager.version_tree_.get());
  }
  manager.retired_.reserve(id_at_retired_slot.size());
  for (size_t slot = 0; slot < id_at_retired_slot.size(); ++slot) {
    manager.retired_.push_back(std::move(blocks[id_at_retired_slot[slot]]));
    manager.retired_.back().set_version_sink(manager.version_tree_.get());
  }

  manager.slot_of_id_.resize(blocks.size());
  for (size_t i = 0; i < placements.size(); ++i) {
    manager.slot_of_id_[i] =
        placements[i].retired ? (kRetiredTierBit | placements[i].slot) : placements[i].slot;
  }

  // Rebuild the derived state in id order so it is deterministic: the version tree's sums
  // (a pure function of block versions), the unlock work list, and the retirement sweep's
  // group observations. Seeding retire_group_seen_ with the current sums makes the first
  // post-restore sweep behave exactly like the next sweep of the uninterrupted run: the
  // snapshot was captured after a sweep, so no unchanged group holds an eligible block.
  for (size_t i = 0; i < manager.slot_of_id_.size(); ++i) {
    BlockId id = static_cast<BlockId>(i);
    manager.version_tree_->SeedVersion(id, manager.block(id).version());
    if (manager.block(id).unlocked_fraction() < 1.0) {
      manager.unlocking_ids_.push_back(id);
    }
  }
  manager.retire_group_seen_.resize(manager.version_tree_->group_count());
  for (size_t g = 0; g < manager.retire_group_seen_.size(); ++g) {
    manager.retire_group_seen_[g] = manager.version_tree_->group_sum(g);
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

void BlockManager::RetireHotSlot(size_t slot) {
  size_t last = hot_.size() - 1;
  if (slot != last) {
    std::swap(hot_[slot], hot_[last]);
    slot_of_id_[static_cast<size_t>(hot_[slot].id())] = slot;
  }
  slot_of_id_[static_cast<size_t>(hot_[last].id())] =
      kRetiredTierBit | static_cast<uint64_t>(retired_.size());
  retired_.push_back(std::move(hot_[last]));
  hot_.pop_back();
}

size_t BlockManager::RetireNewlyExhausted() {
  size_t retired_now = 0;
  // A group whose sum did not move has no member whose version advanced, so no member
  // became eligible.
  ForEachMovedGroup(*version_tree_, retire_group_seen_, slot_of_id_.size(),
                    [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      uint64_t slot = slot_of_id_[i];
      if ((slot & kRetiredTierBit) != 0) {
        continue;
      }
      const PrivacyBlock& candidate = hot_[slot];
      // Retire only when no future mutation is possible: fully unlocked (unlocking is
      // monotone and capped) and exhausted at every usable order (consumption only grows).
      if (candidate.unlocked_fraction() >= 1.0 && candidate.Exhausted()) {
        RetireHotSlot(slot);
        ++retired_now;
      }
    }
  });
  return retired_now;
}

}  // namespace dpack
