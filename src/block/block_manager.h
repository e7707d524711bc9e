// Registry of live privacy blocks with online arrival and budget unlocking (§3.4).
//
// Storage is one vector indexed by id, so block(id) is a single bounds-checked index. An
// exhausted block stays where it is: CanAccept rejects every demand it sees, so nothing in
// the scheduler depends on where such a block is stored, and no per-cycle scan walks the
// whole vector (UpdateUnlocks walks only the still-unlocking ids, the engines drill down
// through the version tree).
//
// Change detection is hierarchical: every version bump is reported to a BlockVersionTree
// (src/block/version_tree.h), so consumers locate changed blocks by scanning group sums
// (64 ids per group) instead of every block's version.

#ifndef SRC_BLOCK_BLOCK_MANAGER_H_
#define SRC_BLOCK_BLOCK_MANAGER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/block/privacy_block.h"
#include "src/block/version_tree.h"

namespace dpack {

class BlockManager {
 public:
  // Blocks created by this manager share `grid` and derive capacity from (eps_g, delta_g).
  BlockManager(AlphaGridPtr grid, double eps_g, double delta_g);

  // The vector holds blocks by value and the tree is heap-pinned; moving the manager keeps
  // every block's sink pointer valid, but copying must go through Clone() (re-sinks).
  BlockManager(BlockManager&&) = default;
  BlockManager& operator=(BlockManager&&) = default;

  const AlphaGridPtr& grid() const { return grid_; }
  double eps_g() const { return eps_g_; }
  double delta_g() const { return delta_g_; }

  // Adds a new block arriving at `arrival_time`; returns its id (dense, starting at 0).
  // In the online setting the block starts fully locked; UpdateUnlocks opens budget.
  // In the offline setting call with unlocked=true to make the whole budget available.
  BlockId AddBlock(double arrival_time, bool unlocked = false);

  // Adds a block with an explicit per-order capacity curve (must share this manager's grid)
  // instead of the derived (eps_g, delta_g) capacity. Used for synthetic instances.
  BlockId AddBlockWithCapacity(RdpCurve capacity, double arrival_time, bool unlocked = false);

  size_t block_count() const { return blocks_.size(); }

  // Blocks that can never change again: fully unlocked and Exhausted(). An O(blocks) scan,
  // kept only because the end-to-end benchmark reports it once per pass, outside any timed
  // request (as GrantService::scheduler() is kept for it); nothing in src/ reads it.
  size_t retired_count() const;

  // References are invalidated by AddBlock* (vector growth moves blocks); hold them only
  // within a scheduling cycle.
  PrivacyBlock& block(BlockId id);
  const PrivacyBlock& block(BlockId id) const;

  // Monotonic arrival epoch, bumped whenever a block is added. Combined with the per-block
  // versions this gives consumers an exact change signal: if the epoch and every block
  // version are unchanged since the last observation, the manager's capacity state is
  // bit-identical. Clone() preserves the epoch and all versions so a clone's observations
  // remain comparable to the original's.
  uint64_t epoch() const { return epoch_; }

  // The hierarchical version clock: group sums change exactly when a member block's version
  // advances. Consumers diff group sums against their last observation to find changed
  // blocks in O(groups + changed).
  const BlockVersionTree& version_tree() const { return *version_tree_; }

  // Ids of the `n` most recent blocks (or all if fewer exist), most recent last. Ids are
  // dense, so this is O(n) regardless of the total block count.
  std::vector<BlockId> MostRecentBlocks(size_t n) const;

  // Applies the paper's unlocking rule at scheduling time `now`: every block's unlocked
  // fraction becomes min(ceil((now - t_j) / period), unlock_steps) / unlock_steps.
  // Requires period > 0 and unlock_steps >= 1. O(still-unlocking blocks): fully-unlocked
  // blocks leave the work list permanently (the rule is monotone and capped at 1).
  void UpdateUnlocks(double now, double period, int64_t unlock_steps);

  // Deep copy of the manager and all block states (capacities, consumption, unlocking).
  // Used by schedulers that need to trial-run allocation without committing budget.
  BlockManager Clone() const;

  // Rebuilds a manager from checkpointed state (see src/orchestrator/checkpoint.h):
  // `blocks` must carry dense ids 0..n-1 in order, on `grid`, and `epoch` must equal the
  // block count (the epoch only ever advances on AddBlock*). The result is byte-identical
  // to the captured manager — including the epoch and every block's version — so change
  // signals observed against the restored manager compare exactly like the original's.
  static BlockManager Restore(AlphaGridPtr grid, double eps_g, double delta_g,
                              uint64_t epoch, std::vector<PrivacyBlock> blocks);

 private:
  AlphaGridPtr grid_;
  double eps_g_;
  double delta_g_;
  uint64_t epoch_ = 0;
  // Indexed by id.
  std::vector<PrivacyBlock> blocks_;
  // Ids with unlocked_fraction < 1 — UpdateUnlocks' work list. Membership is a set (the
  // unlock rule is per-block and order-independent); ids swap-pop out on reaching 1.
  std::vector<BlockId> unlocking_ids_;
  // Heap-pinned so block sink pointers survive manager moves.
  std::unique_ptr<BlockVersionTree> version_tree_;
};

}  // namespace dpack

#endif  // SRC_BLOCK_BLOCK_MANAGER_H_
