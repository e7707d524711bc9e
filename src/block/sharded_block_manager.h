// Shard partition over a BlockManager: assigns every block to one of N shards and gives
// each shard its own epoch/version space, extending PR 1's change-detection invariant to
// shard granularity so consumers (the sharded scheduling engine, the checkpoint codec) can
// detect *which* partition of the capacity state changed, in O(blocks) counter
// reads and without touching any curve.
//
// Partitioning: block g belongs to shard g mod N, local index g / N (round-robin). Global
// ids are dense and arrival-ordered, so shards stay balanced block-by-block under online
// arrival (members of shard s, in id order, are exactly {s, s + N, s + 2N, ...}), and local
// indices are dense per shard, so per-shard arrays sized by shard_members(s).size() are
// indexed by LocalIndex directly. The partition only distributes *block ownership*
// (refresh/solve work); the scheduling engine's task-side sharding and merge order never
// read it.
//
// Per-shard clocks, mirroring the manager-level invariant (see src/dpack/dpack.h):
//   - shard_epoch(s): number of blocks absorbed into shard s — the shard's own arrival
//     epoch. Sum over shards equals the number of blocks the partition has absorbed.
//   - shard_version(s): sum of the member blocks' monotonic versions at the last Sync().
//     Versions only grow, so the sum is monotone, and an unchanged (epoch, version) pair
//     proves every block in the shard bit-identical — the per-shard restriction of the
//     manager's "unchanged (epoch, versions) => bit-identical capacity state".
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
  uint64_t shard_epoch(size_t s) const { return shards_[s].epoch; }
  uint64_t shard_version(size_t s) const { return shards_[s].version; }
  // True when the last Sync() advanced shard `s`'s epoch or version — some member block's
  // capacity state changed (or arrived) since the previous Sync. Note this covers *capacity*
  // changes only; requester-set (membership) changes live outside the block layer.
  bool shard_dirty(size_t s) const { return shards_[s].dirty; }

  // Member ids of shard `s` whose version advanced between the previous Sync and the last
  // one, in increasing id order — the exact set a consumer must refresh. Blocks absorbed by
  // the last Sync are *not* listed (they are new, not changed; consumers see them through
  // the epoch/member list). Stable until the next Sync; readable from parallel phases.
  const std::vector<BlockId>& shard_changed(size_t s) const { return shards_[s].changed; }

  // Blocks absorbed so far (= the manager's block_count() at the last Sync).
  size_t known_blocks() const { return known_; }

  // Absorbs blocks added to the manager since the last Sync and
  // refreshes every shard's version sum, changed list, and dirty flag. Returns the number of
  // new blocks. Not thread-safe; run between parallel phases.
  //
  // O(arrivals + changed) via the manager's BlockVersionTree: only groups whose version sum
  // advanced are drilled into, and within them only blocks whose recorded version moved are
  // charged to their shard. The shard version sums stay exactly "sum of member versions"
  // (the checkpoint codec re-derives and cross-checks them), updated by per-block deltas.
  size_t Sync();

 private:
  struct Shard {
    std::vector<BlockId> members;
    // Changed (not new) member ids from the last Sync; see shard_changed().
    std::vector<BlockId> changed;
    uint64_t epoch = 0;    // Arrivals absorbed into this shard.
    uint64_t version = 0;  // Sum of member versions at the last Sync.
    bool dirty = false;  // Epoch or version advanced in the last Sync.
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
