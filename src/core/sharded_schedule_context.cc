#include "src/core/sharded_schedule_context.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace dpack {

namespace {

constexpr uint64_t kNoReject = std::numeric_limits<uint64_t>::max();

}  // namespace

TaskCacheMap::TaskCacheMap() { slots_.resize(1024); }

size_t TaskCacheMap::Probe(TaskId id) const {
  uint64_t h = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h) & (slots_.size() - 1);
}

size_t TaskCacheMap::Find(TaskId id) const {
  size_t i = Probe(id);
  while (slots_[i].used) {
    if (slots_[i].id == id) {
      return i;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
  return kNpos;
}

size_t TaskCacheMap::FindOrInsert(TaskId id) {
  size_t i = Probe(id);
  while (slots_[i].used) {
    if (slots_[i].id == id) {
      return i;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
  DPACK_CHECK_MSG(2 * (size_ + 1) <= slots_.size(), "TaskCacheMap insert without Reserve");
  slots_[i].used = true;
  slots_[i].id = id;
  slots_[i].value = TaskCache{};
  ++size_;
  return i;
}

bool TaskCacheMap::Reserve(size_t additional) {
  size_t needed = 2 * (size_ + additional + 1);
  if (needed <= slots_.size()) {
    return false;
  }
  size_t capacity = slots_.size();
  while (capacity < needed) {
    capacity *= 2;
  }
  Rehash(capacity);
  return true;
}

void TaskCacheMap::Rehash(size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  for (Slot& slot : old) {
    if (slot.used) {
      size_t i = Probe(slot.id);
      while (slots_[i].used) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = std::move(slot);
    }
  }
}

void TaskCacheMap::PurgeNotSeen(uint64_t cycle) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size(), Slot{});
  size_ = 0;
  for (Slot& slot : old) {
    if (slot.used && slot.value.last_seen == cycle) {
      size_t i = Probe(slot.id);
      while (slots_[i].used) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = std::move(slot);
      ++size_;
    }
  }
}

void TaskCacheMap::Clear() {
  slots_.assign(slots_.size(), Slot{});
  size_ = 0;
}

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
  snapshot_.reset();
  last_version_.clear();
  version_now_.clear();
  group_seen_.clear();
  dirty_stamp_.clear();
  member_sig_.clear();
  sig_scratch_.clear();
  touched_stamp_.clear();
  best_alpha_.clear();
  requesters_.clear();
  shards_.assign(num_shards_, ShardContext{});
  cache_of_index_.clear();
  order_.clear();
  cursor_.clear();
  cycle_stamp_ = 0;
}

void ShardedScheduleContext::SyncBlocks(const BlockManager& blocks) {
  if (!snapshot_.has_value()) {
    snapshot_.emplace(blocks.grid());
  }
  size_t count = blocks.block_count();
  size_t known = last_version_.size();
  DPACK_CHECK_MSG(count >= known, "blocks disappeared: Invalidate() before a new manager");
  for (ShardContext& shard : shards_) {
    shard.changed.clear();
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
    requesters_.emplace_back();
    MarkShardDirty(static_cast<BlockId>(g));
  }
  // Drill into version-tree groups whose sum advanced since the last cycle — O(groups +
  // changed) instead of a version scan over every block. Arrivals were recorded at their
  // current version above (nonzero over a pre-committed or restored manager), so the drill
  // lists only blocks that changed since the engine last saw them.
  ForEachChangedBlock(
      blocks.version_tree(), group_seen_, last_version_,
      [&](size_t g) { return blocks.block(static_cast<BlockId>(g)).version(); },
      [&](size_t g) {
        shards_[ShardOf(static_cast<BlockId>(g))].changed.push_back(static_cast<BlockId>(g));
      });
}

void ShardedScheduleContext::SyncShardBlocks(size_t s, const BlockManager& blocks,
                                             std::span<const Task> pending) {
  ShardContext& shard = shards_[s];
  // version_now_ (the walk's mirror) is persistent: the walk's commits keep it current and
  // this refresh re-syncs whatever changed outside the walk (unlocks), so afterwards
  // version_now_[g] == last_version_[g] == the block's current version for every g.
  for (BlockId g : shard.changed) {
    size_t gi = static_cast<size_t>(g);
    version_now_[gi] = last_version_[gi];
    snapshot_->RefreshAvailable(g, blocks.block(g).AvailableCurve());
    MarkShardDirty(g);
    ++shard.partial.blocks_refreshed;
  }
  if (metric_ != GreedyMetric::kDpack) {
    return;
  }
  // Membership signatures for owned blocks: best alphas depend on the requester set, so a
  // membership change (arrival, grant, eviction) dirties a block even when no capacity
  // changed. Every shard scans the whole batch but mixes only its owned blocks, so the
  // per-block signature streams do not depend on the shard count. Touched entries are
  // seeded lazily, and blocks that *lost* all requesters are handled off the owned active
  // list — O(batch refs + prev active), never O(members).
  // Locals, so the loops' stores cannot force reloads: at one shard every block is owned.
  const bool owns_all = num_shards_ == 1;
  const uint64_t stamp = cycle_stamp_;
  shard.touched_ids.clear();
  for (const Task& task : pending) {
    for (BlockId j : task.blocks) {
      size_t ji = static_cast<size_t>(j);
      DPACK_CHECK(j >= 0 && ji < sig_scratch_.size());
      if (!owns_all && ShardOf(j) != s) {
        continue;
      }
      if (touched_stamp_[ji] != stamp) {
        touched_stamp_[ji] = stamp;
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
  for (BlockId g : shard.dirty_ids) {
    requesters_[static_cast<size_t>(g)].clear();
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    for (BlockId j : pending[i].blocks) {
      size_t ji = static_cast<size_t>(j);
      // Ownership first: another shard's dirty_stamp_ entries are being written right now.
      if ((owns_all || ShardOf(j) == s) && dirty_stamp_[ji] == stamp) {
        requesters_[ji].push_back(i);
      }
    }
  }
  // Per-block solves are independent, so dirty-list order (vs id order) is immaterial.
  for (BlockId g : shard.dirty_ids) {
    size_t gi = static_cast<size_t>(g);
    best_alpha_[gi] = BestAlphaForBlock(pending, requesters_[gi], snapshot_->available(g), eta_);
    ++shard.partial.best_alpha_recomputes;
  }
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
    for (const ShardContext& source : shards_) {
      MarkStaleShardTasks(shard, source.dirty_ids, previous_cycle);
    }
  }
  // Reserving up front means no slot moves mid-cycle: the cache entries the score pass
  // records (cache_of_index_) stay valid through the merge and the allocation walk.
  size_t home = HomeCount(shard, pending.size());
  shard.slots_moved |= shard.cache.Reserve(home);
  // Score pass: one cache lookup per home task decides between reuse and rescore; rescored
  // tasks contribute a fresh entry under a new generation, lazily superseding their old one.
  const bool all_home = num_shards_ == 1;  // No partition list at one shard.
  const uint64_t stamp = cycle_stamp_;
  for (size_t k = 0; k < home; ++k) {
    size_t i = all_home ? k : shard.task_indices[k];
    const Task& task = pending[i];
    size_t slot = shard.cache.FindOrInsert(task.id);
    TaskCache& cached = shard.cache.at(slot);
    cache_of_index_[i] = &cached;
    if (cached.last_seen == stamp) {
      // Duplicate ids map to the same home shard, so local detection covers the batch.
      shard.duplicate = true;
      return;
    }
    // A cache entry is only trustworthy if the task was pending in the immediately
    // preceding cycle with an unchanged block list (the vector buffer travels with the task
    // on moves; reallocation on late resolution changes the pointer).
    bool needs_index = cached.last_seen != previous_cycle ||
                       cached.blocks_ptr != task.blocks.data() ||
                       cached.blocks_len != task.blocks.size();
    cached.last_seen = stamp;
    cached.index = i;
    if (needs_index) {
      cached.reject_vsum = kNoReject;  // New or re-resolved task: no feasibility memo.
    } else if (metric_ == GreedyMetric::kDpf || cached.stale_stamp != stamp) {
      // Live entry the marking pass did not stamp stale this cycle. DPF never goes stale:
      // its scores read only total capacities, which never change for a fixed block list.
      ++shard.partial.tasks_reused;
      continue;
    }
    if (needs_index && metric_ != GreedyMetric::kDpf) {
      // New or re-resolved block list: register the task in this shard's reverse index
      // under each requested block (any shard's block — the index is task-sharded) so
      // future dirty blocks reach it. DPF never consults the index.
      for (BlockId j : task.blocks) {
        shard.rindex[static_cast<size_t>(j)].push_back(task.id);
      }
    }
    cached.score = ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_);
    cached.generation = shard.next_generation++;
    cached.blocks_ptr = task.blocks.data();
    cached.blocks_len = task.blocks.size();
    shard.fresh.push_back({cached.score, task.arrival_time, task.id, cached.generation, slot});
    ++shard.partial.tasks_rescored;
  }
  MergeShardHeap(shard);
}

void ShardedScheduleContext::MergeShardHeap(ShardContext& shard) {
  // In-order merge of the surviving sorted entries (heap) with this cycle's rescored ones
  // (fresh) under the reference sort's total order. Stale entries are dropped here; when
  // slots moved (rehash or purge), heap entries re-resolve their cache slot via Find. The
  // ping-pong scratch persists across cycles, so steady-state merges never allocate.
  std::sort(shard.fresh.begin(), shard.fresh.end(), HeapEntryBefore);
  std::vector<HeapEntry>& heap = shard.heap;
  std::vector<HeapEntry>& fresh = shard.fresh;
  std::vector<HeapEntry>& out = shard.merged;
  size_t out_capacity = out.capacity();
  out.clear();
  shard.order.clear();
  size_t hi = 0;
  size_t fi = 0;
  while (hi < heap.size() || fi < fresh.size()) {
    bool take_heap;
    if (hi >= heap.size()) {
      take_heap = false;
    } else if (fi >= fresh.size()) {
      take_heap = true;
    } else {
      take_heap = HeapEntryBefore(heap[hi], fresh[fi]);
    }
    if (take_heap) {
      HeapEntry entry = heap[hi++];
      if (shard.slots_moved) {
        size_t slot = shard.cache.Find(entry.id);
        if (slot == TaskCacheMap::kNpos) {
          continue;  // Stale: purged.
        }
        entry.slot = slot;
      }
      const TaskCache& cached = shard.cache.at(entry.slot);
      if (cached.last_seen != cycle_stamp_ || cached.generation != entry.generation) {
        continue;  // Stale: superseded, granted, or evicted.
      }
      shard.order.push_back(cached.index);
      out.push_back(entry);
    } else {
      const HeapEntry& entry = fresh[fi++];
      shard.order.push_back(shard.cache.at(entry.slot).index);
      out.push_back(entry);
    }
  }
  // dpack-lint: allow(float-equality): size_t buffer-capacity bookkeeping, not a budget double.
  if (out.capacity() != out_capacity) {
    ++shard.partial.merge_allocs;  // Output buffer grew.
  }
  heap.swap(out);
  fresh.clear();
  shard.slots_moved = false;
}

void ShardedScheduleContext::MergeOrder() {
  if (num_shards_ == 1) {
    order_.swap(shards_[0].order);  // One sorted shard is already the global order.
    return;
  }
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
    order_.push_back(shards_[best].order[cursor_[best]++]);
  }
}

std::vector<size_t> ShardedScheduleContext::AllocateWithMemos(std::span<const Task> pending,
                                                              BlockManager& blocks) {
  // The CANRUN walk over order_ — identical grants to AllocateInOrder on the same order —
  // with the reject memos living in each task's home-shard cache entry. Sequential: the
  // walk's commits are order-dependent.
  std::vector<size_t> granted;
  for (size_t idx : order_) {
    const Task& task = pending[idx];
    if (task.blocks.empty()) {
      continue;  // Unresolved block request.
    }
    TaskCache& cached = *cache_of_index_[idx];
    uint64_t vsum = 0;
    for (BlockId j : task.blocks) {
      vsum += version_now_[static_cast<size_t>(j)];
    }
    if (cached.reject_vsum == vsum) {
      continue;
    }
    bool can_run = true;
    for (BlockId j : task.blocks) {
      if (!blocks.block(j).CanAccept(task.demand)) {
        can_run = false;
        break;
      }
    }
    if (!can_run) {
      cached.reject_vsum = vsum;
      continue;
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
      version_now_[static_cast<size_t>(j)] = blocks.block(j).version();
    }
    cached.last_seen = 0;  // The grant removes the task from the queue.
    granted.push_back(idx);
  }
  return granted;
}

std::vector<size_t> ShardedScheduleContext::ScheduleBatch(std::span<const Task> pending,
                                                          BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  ++stats_.cycles;
  if (metric_ == GreedyMetric::kFcfs) {
    // Arrival order needs no scores, hence no cache: the engine is a pass-through.
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  ScheduleContextStats stats_at_entry = stats_;
  uint64_t previous_cycle = cycle_stamp_;
  ++cycle_stamp_;

  SyncBlocks(blocks);

  // Partition the batch by home shard, sequentially, so each shard can reserve its cache up
  // front (no slot moves mid-cycle). At one shard every task is home: no partition pass.
  for (ShardContext& shard : shards_) {
    shard.task_indices.clear();
    shard.duplicate = false;
  }
  if (num_shards_ > 1) {
    for (size_t i = 0; i < pending.size(); ++i) {
      shards_[ShardOf(pending[i].id)].task_indices.push_back(i);
    }
  }
  cache_of_index_.resize(pending.size());

  // Phase 2: per-shard block refresh (disjoint writes into the shared id-indexed arrays;
  // the pool join publishes them to the scoring phase).
  pool_.ParallelFor(num_shards_, [&](size_t s) { SyncShardBlocks(s, blocks, pending); });
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
    // grants stay exactly the reference sequence. The partial pass's work is discarded,
    // so its counters are too.
    Invalidate();
    stats_ = stats_at_entry;
    ++stats_.full_recomputes;
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  MergeOrder();
  std::vector<size_t> granted = AllocateWithMemos(pending, blocks);

  for (ShardContext& shard : shards_) {
    // Bound cache growth: once dead entries (granted or evicted tasks) dominate — long runs
    // with churn — rebuild keeping only the live ones. Heap entries re-resolve lazily.
    if (shard.cache.size() > 2 * HomeCount(shard, pending.size()) + 64) {
      shard.cache.PurgeNotSeen(cycle_stamp_);
      shard.slots_moved = true;
    }
    stats_.Accumulate(shard.partial);
    shard.partial = ScheduleContextStats{};
  }
  return granted;
}

}  // namespace dpack
