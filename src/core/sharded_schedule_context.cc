#include "src/core/sharded_schedule_context.h"

#include <algorithm>

#include "src/common/check.h"

namespace dpack {

ShardedScheduleContext::ShardedScheduleContext(GreedyMetric metric, double eta,
                                               size_t num_shards)
    : metric_(metric),
      eta_(eta),
      num_shards_(num_shards),
      pool_(num_shards >= 1 ? num_shards - 1 : 0),
      shards_(num_shards) {
  DPACK_CHECK(eta_ > 0.0);
  DPACK_CHECK_MSG(num_shards_ >= 1, "ShardedScheduleContext needs at least one shard");
  stats_.shards = num_shards_;
}

void ShardedScheduleContext::Invalidate() {
  bound_ = nullptr;
  partition_.reset();
  snapshot_.reset();
  last_version_.clear();
  version_now_.clear();
  dirty_stamp_.clear();
  member_sig_.clear();
  sig_scratch_.clear();
  touched_stamp_.clear();
  best_alpha_.clear();
  shards_.assign(num_shards_, ShardContext{});
  slot_of_index_.clear();
  order_.clear();
  cursor_.clear();
  cycle_stamp_ = 0;
}

void ShardedScheduleContext::BindManager(BlockManager& blocks) {
  if (bound_ == &blocks) {
    return;
  }
  DPACK_CHECK_MSG(bound_ == nullptr,
                  "engine already bound to another manager: call Invalidate() first");
  bound_ = &blocks;
  partition_.emplace(&blocks, num_shards_);
  snapshot_.emplace(blocks.grid());
}

void ShardedScheduleContext::SyncArrivals(BlockManager& blocks) {
  partition_->Sync();
  size_t count = blocks.block_count();
  size_t known = last_version_.size();
  for (ShardContext& shard : shards_) {
    shard.dirty_ids.clear();
  }
  dirty_stamp_.resize(count, 0);
  touched_stamp_.resize(count, 0);
  sig_scratch_.resize(count, kMemberSigSeed);
  for (size_t g = known; g < count; ++g) {
    const PrivacyBlock& b = blocks.block(static_cast<BlockId>(g));
    snapshot_->Append(b.AvailableCurve(), b.capacity());
    last_version_.push_back(b.version());
    version_now_.push_back(b.version());
    member_sig_.push_back(kMemberSigSeed);
    best_alpha_.push_back(0);
    MarkShardDirty(static_cast<BlockId>(g));
  }
}

void ShardedScheduleContext::SyncShardBlocks(size_t s, const BlockManager& blocks,
                                             std::span<const Task> pending,
                                             size_t refresh_limit) {
  ShardContext& shard = shards_[s];
  // The partition's Sync computed the exact changed-id list per shard — O(changed), via
  // the manager's version tree — so the refresh touches only those snapshot entries.
  // Arrivals were appended fresh (and marked dirty) by SyncArrivals; the changed list
  // never contains them.
  for (BlockId g : partition_->shard_changed(s)) {
    size_t gi = static_cast<size_t>(g);
    DPACK_CHECK(gi < refresh_limit);
    const PrivacyBlock& b = blocks.block(g);
    last_version_[gi] = b.version();
    version_now_[gi] = b.version();
    snapshot_->RefreshAvailable(g, b.AvailableCurve());
    MarkShardDirty(g);
    ++shard.partial.blocks_refreshed;
  }
  if (metric_ != GreedyMetric::kDpack) {
    return;
  }
  // Membership signatures for owned blocks: best alphas depend on the requester set, so a
  // membership change (arrival, grant, eviction) dirties a block even when no capacity
  // changed. Every shard scans the whole batch but mixes only its owned blocks, so the
  // per-block signature streams are identical to the single-shard engine's. Touched
  // entries are seeded lazily, and blocks that *lost* all requesters are handled off the
  // owned active list — O(batch refs + prev active), never O(members).
  shard.touched_ids.clear();
  for (const Task& task : pending) {
    for (BlockId j : task.blocks) {
      size_t ji = static_cast<size_t>(j);
      DPACK_CHECK(j >= 0 && ji < sig_scratch_.size());
      if (partition_->ShardOf(j) != s) {
        continue;
      }
      if (touched_stamp_[ji] != cycle_stamp_) {
        touched_stamp_[ji] = cycle_stamp_;
        shard.touched_ids.push_back(j);
        sig_scratch_[ji] = kMemberSigSeed;
      }
      sig_scratch_[ji] = MemberSigMix(sig_scratch_[ji], static_cast<uint64_t>(task.id));
    }
  }
  for (BlockId g : shard.active_ids) {
    size_t gi = static_cast<size_t>(g);
    if (touched_stamp_[gi] != cycle_stamp_ && member_sig_[gi] != kMemberSigSeed) {
      member_sig_[gi] = kMemberSigSeed;
      MarkShardDirty(g);
    }
  }
  shard.active_ids.clear();
  for (BlockId g : shard.touched_ids) {
    size_t gi = static_cast<size_t>(g);
    if (sig_scratch_[gi] != member_sig_[gi]) {
      member_sig_[gi] = sig_scratch_[gi];
      MarkShardDirty(g);
    }
    if (member_sig_[gi] != kMemberSigSeed) {
      shard.active_ids.push_back(g);
    }
  }
  // Requester lists and best-alpha subproblems for the dirty owned blocks. Requesters are
  // collected in batch order, matching ComputeBestAlphas' item order exactly.
  if (shard.dirty_ids.empty()) {
    return;
  }
  if (shard.requesters.size() < partition_->shard_members(s).size()) {
    shard.requesters.resize(partition_->shard_members(s).size());
  }
  for (BlockId g : shard.dirty_ids) {
    shard.requesters[partition_->LocalIndex(g)].clear();
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    for (BlockId j : pending[i].blocks) {
      if (partition_->ShardOf(j) == s &&
          dirty_stamp_[static_cast<size_t>(j)] == cycle_stamp_) {
        shard.requesters[partition_->LocalIndex(j)].push_back(i);
      }
    }
  }
  // Per-block solves are independent, so dirty-list order (vs member order) is immaterial.
  for (BlockId g : shard.dirty_ids) {
    size_t gi = static_cast<size_t>(g);
    best_alpha_[gi] = BestAlphaForBlock(pending, shard.requesters[partition_->LocalIndex(g)],
                                        snapshot_->available(g), eta_);
    ++shard.partial.best_alpha_recomputes;
  }
}

double ShardedScheduleContext::ScoreTask(const Task& task) const {
  return ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_);
}

bool ShardedScheduleContext::ScoreOneTask(ShardContext& shard, std::span<const Task> pending,
                                          size_t i, uint64_t previous_cycle) {
  const Task& task = pending[i];
  size_t slot = shard.cache.FindOrInsert(task.id);
  slot_of_index_[i] = slot;
  TaskCache& cached = shard.cache.at(slot);
  if (cached.last_seen == cycle_stamp_) {
    // Duplicate ids map to the same home shard, so local detection covers the batch.
    shard.duplicate = true;
    return false;
  }
  bool needs_index = false;
  bool rescore =
      ShouldRescore(cached, task, metric_, previous_cycle, cycle_stamp_, needs_index);
  cached.last_seen = cycle_stamp_;
  cached.index = i;
  if (!rescore) {
    ++shard.partial.tasks_reused;
    return true;
  }
  if (needs_index && metric_ != GreedyMetric::kDpf) {
    // New or re-resolved block list: register the task in its home shard's reverse index
    // under each requested block (any shard's block — the index is task-sharded).
    for (BlockId j : task.blocks) {
      shard.rindex[static_cast<size_t>(j)].push_back(task.id);
    }
  }
  cached.score = ScoreTask(task);
  cached.generation = shard.next_generation++;
  cached.blocks_ptr = task.blocks.data();
  cached.blocks_len = task.blocks.size();
  shard.fresh.push_back({cached.score, task.arrival_time, task.id, cached.generation, slot});
  ++shard.partial.tasks_rescored;
  return true;
}

void ShardedScheduleContext::MarkStaleShardTasks(ShardContext& shard,
                                                 std::span<const BlockId> dirty_ids,
                                                 uint64_t previous_cycle) {
  for (BlockId id : dirty_ids) {
    std::vector<TaskId>& tasks = shard.rindex[static_cast<size_t>(id)];
    for (size_t i = 0; i < tasks.size();) {
      size_t slot = shard.cache.Find(tasks[i]);
      if (slot == TaskCacheMap::kNpos || shard.cache.at(slot).last_seen != previous_cycle) {
        tasks[i] = tasks.back();  // Dead entry (granted, evicted, or purged): prune.
        tasks.pop_back();
        continue;
      }
      shard.cache.at(slot).stale_stamp = cycle_stamp_;
      ++i;
    }
  }
}

void ShardedScheduleContext::ScoreShardTasks(size_t s, std::span<const Task> pending,
                                             uint64_t previous_cycle) {
  ShardContext& shard = shards_[s];
  if (metric_ != GreedyMetric::kDpf) {
    // Every shard's phase-2 dirty list is complete and visible (the pool join): stamp this
    // shard's affected home tasks stale before their reuse-vs-rescore decisions.
    if (shard.rindex.size() < last_version_.size()) {
      shard.rindex.resize(last_version_.size());
    }
    for (size_t src = 0; src < num_shards_; ++src) {
      MarkStaleShardTasks(shard, shards_[src].dirty_ids, previous_cycle);
    }
  }
  shard.slots_moved |= shard.cache.Reserve(shard.task_indices.size());
  for (size_t i : shard.task_indices) {
    if (!ScoreOneTask(shard, pending, i, previous_cycle)) {
      return;
    }
  }
  MergeShardHeap(shard);
}

void ShardedScheduleContext::MergeShardHeap(ShardContext& shard) {
  // The per-shard half of the single-shard engine's PopHeapIntoOrder (shared
  // MergeScoreHeap); no order is emitted here — the global order comes from MergeOrder's
  // N-way merge over the shard heaps.
  MergeScoreHeap(shard.heap, shard.fresh, shard.merged, shard.cache, cycle_stamp_,
                 shard.slots_moved, shard.partial.merge_allocs, /*order_out=*/nullptr);
}

void ShardedScheduleContext::MergeOrder() {
  // Deterministic N-way merge of the per-shard heaps (each fully sorted, all entries live
  // this cycle). HeapEntryBefore is a strict total order for unique task ids, so the merged
  // sequence is the unique reference sort order — independent of shard count and timing.
  order_.clear();
  cursor_.assign(num_shards_, 0);
  while (true) {
    size_t best = num_shards_;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (cursor_[s] >= shards_[s].heap.size()) {
        continue;
      }
      if (best == num_shards_ ||
          HeapEntryBefore(shards_[s].heap[cursor_[s]], shards_[best].heap[cursor_[best]])) {
        best = s;
      }
    }
    if (best == num_shards_) {
      break;
    }
    const HeapEntry& entry = shards_[best].heap[cursor_[best]++];
    order_.push_back(shards_[best].cache.at(entry.slot).index);
  }
}

std::vector<size_t> ShardedScheduleContext::AllocateWithMemos(std::span<const Task> pending,
                                                              BlockManager& blocks) {
  // The shared CANRUN walk, with the reject memos living in each task's home-shard cache.
  // Sequential: the walk's commits are order-dependent.
  return RunAllocationWalk(pending, blocks, order_, version_now_, [&](size_t idx) -> TaskCache& {
    return shards_[HomeShard(pending[idx].id)].cache.at(slot_of_index_[idx]);
  });
}

std::vector<size_t> ShardedScheduleContext::ScheduleBatch(std::span<const Task> pending,
                                                          BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  ++stats_.cycles;
  if (metric_ == GreedyMetric::kFcfs) {
    // Arrival order needs no scores, hence no shards: the engine is a pass-through.
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  ScheduleContextStats stats_at_entry = stats_;
  uint64_t previous_cycle = cycle_stamp_;
  ++cycle_stamp_;

  BindManager(blocks);
  size_t refresh_limit = last_version_.size();
  SyncArrivals(blocks);

  // Partition the batch by home shard, sequentially, so each shard can reserve its cache up
  // front (no slot moves mid-cycle). Done before the phases fan out: the score pass reads
  // its shard's task_indices.
  for (ShardContext& shard : shards_) {
    shard.task_indices.clear();
    shard.duplicate = false;
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    shards_[HomeShard(pending[i].id)].task_indices.push_back(i);
  }
  slot_of_index_.resize(pending.size());

  // Phase 2: per-shard block refresh (disjoint writes into the shared id-indexed arrays;
  // the pool join publishes them to the scoring phase).
  pool_.ParallelFor(num_shards_,
                    [&](size_t s) { SyncShardBlocks(s, blocks, pending, refresh_limit); });
  // Phase 3: per-shard score pass and local heap merge.
  pool_.ParallelFor(num_shards_,
                    [&](size_t s) { ScoreShardTasks(s, pending, previous_cycle); });

  bool duplicate_ids = false;
  for (const ShardContext& shard : shards_) {
    duplicate_ids |= shard.duplicate;
  }
  if (duplicate_ids) {
    // Id-keyed caches cannot reproduce the recompute path's tie-breaking between tasks
    // that share an id: recompute this batch from scratch and start the caches over —
    // grants stay exactly the reference sequence.
    Invalidate();
    stats_ = stats_at_entry;
    ++stats_.full_recomputes;
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  // version_now_ is already current: arrivals appended it, phase 2 overwrote exactly the
  // changed entries (owner-written; published by the pool join), and the previous
  // walk's commits kept it in sync in between — no O(blocks) mirror copy.
  MergeOrder();
  std::vector<size_t> granted = AllocateWithMemos(pending, blocks);

  for (ShardContext& shard : shards_) {
    // Bound cache growth per shard, as the single-shard engine does globally.
    if (shard.cache.size() > 2 * shard.task_indices.size() + 64) {
      shard.cache.PurgeNotSeen(cycle_stamp_);
      shard.slots_moved = true;
    }
    stats_.Accumulate(shard.partial);
    shard.partial = ScheduleContextStats{};
  }
  return granted;
}

}  // namespace dpack
