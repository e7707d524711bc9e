// Shard partition over a BlockManager: assigns every block to one of N shards and reports,
// per shard, which member blocks changed since the previous Sync(), so consumers (the
// sharded scheduling engine) refresh only the blocks whose capacity state moved, reading
// version counters only, never a curve.
//
// Partitioning: block g belongs to shard g mod N, local index g / N (round-robin). Global
// ids are dense and arrival-ordered, so shards stay balanced block-by-block under online
// arrival (members of shard s, in id order, are exactly {s, s + N, s + 2N, ...}), and local
// indices are dense per shard, so per-shard arrays sized by shard_members(s).size() are
// indexed by LocalIndex directly. The partition only distributes *block ownership*
// (refresh/solve work); the scheduling engine's task-side sharding and merge order never
// read it.
//
// The partition is a passive overlay: it never mutates the manager, and it observes
// arrivals only at Sync(), which callers run once per scheduling cycle (single-threaded)
// before fanning work out per shard.

#ifndef SRC_BLOCK_SHARDED_BLOCK_MANAGER_H_
#define SRC_BLOCK_SHARDED_BLOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/block/block_manager.h"

namespace dpack {

class ShardedBlockManager {
 public:
  // `blocks` must outlive this object; `num_shards` >= 1. Existing blocks are absorbed by
  // the first Sync().
  ShardedBlockManager(BlockManager* blocks, size_t num_shards);

  BlockManager& manager() { return *blocks_; }
  const BlockManager& manager() const { return *blocks_; }

  size_t num_shards() const { return shards_.size(); }
  size_t ShardOf(BlockId id) const {
    return static_cast<size_t>(static_cast<uint64_t>(id) % shards_.size());
  }
  // Index of block `id` within its shard's member list (dense).
  size_t LocalIndex(BlockId id) const {
    return static_cast<size_t>(static_cast<uint64_t>(id) / shards_.size());
  }

  // Member block ids of shard `s`, in increasing (arrival) order.
  const std::vector<BlockId>& shard_members(size_t s) const { return shards_[s].members; }

  // Member ids of shard `s` whose version advanced between the previous Sync and the last
  // one, in increasing id order — the exact set a consumer must refresh. Blocks absorbed by
  // the last Sync are *not* listed (they are new, not changed; consumers see them through
  // the member list). Stable until the next Sync; readable from parallel phases.
  const std::vector<BlockId>& shard_changed(size_t s) const { return shards_[s].changed; }

  // Blocks absorbed so far (= the manager's block_count() at the last Sync).
  size_t known_blocks() const { return known_; }

  // Absorbs blocks added to the manager since the last Sync and refreshes every shard's
  // changed list. Returns the number of new blocks. Not thread-safe; run between parallel
  // phases.
  //
  // O(arrivals + changed) via the manager's BlockVersionTree: only groups whose version sum
  // advanced are drilled into, and within them only blocks whose recorded version moved are
  // listed as changed in their shard.
  size_t Sync();

 private:
  struct Shard {
    std::vector<BlockId> members;
    // Changed (not new) member ids from the last Sync; see shard_changed().
    std::vector<BlockId> changed;
  };

  BlockManager* blocks_;
  std::vector<Shard> shards_;
  size_t known_ = 0;
  // Per-id version recorded when the block was last absorbed or refreshed by Sync.
  std::vector<uint64_t> last_block_version_;
  // Version-tree group sums at the last Sync — the drill-down filter.
  std::vector<uint64_t> group_seen_;
};

}  // namespace dpack

#endif  // SRC_BLOCK_SHARDED_BLOCK_MANAGER_H_
