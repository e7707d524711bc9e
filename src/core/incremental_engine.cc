#include "src/core/incremental_engine.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace dpack {

namespace {

constexpr uint64_t kNoReject = std::numeric_limits<uint64_t>::max();

// The engine's id-indexed arrays (signatures, reverse index, version mirror) are sized by
// the block count, so every task block id is checked once, before any of them is written.
void CheckBlockIds(std::span<const Task> pending, size_t block_count) {
  for (const Task& task : pending) {
    for (BlockId j : task.blocks) {
      DPACK_CHECK_MSG(j >= 0 && static_cast<size_t>(j) < block_count,
                      "task " << task.id << " requests block " << j << " of " << block_count);
    }
  }
}

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

IncrementalEngine::IncrementalEngine(GreedyMetric metric, double eta)
    : metric_(metric), eta_(eta) {
  DPACK_CHECK(eta_ > 0.0);
}

void IncrementalEngine::Invalidate() {
  // Everything but the lifetime counters starts over as at construction (fresh buffers, so
  // merge_allocs counts their regrowth exactly as for a new engine).
  ScheduleContextStats stats = stats_;
  *this = IncrementalEngine(metric_, eta_);
  stats_ = stats;
}

void IncrementalEngine::SyncBlocks(const BlockManager& blocks, std::span<const Task> pending) {
  if (!snapshot_.has_value()) {
    snapshot_.emplace(blocks.grid());
  }
  size_t count = blocks.block_count();
  size_t known = last_version_.size();
  DPACK_CHECK_MSG(count >= known, "blocks disappeared: Invalidate() before a new manager");
  dirty_ids_.clear();
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
    MarkDirty(static_cast<BlockId>(g));
  }
  // Drill into version-tree groups whose sum advanced since the last cycle — O(groups +
  // changed) instead of a version scan over every block. Arrivals were recorded at their
  // current version above (nonzero over a pre-committed or restored manager), so the drill
  // lists only blocks that changed since the engine last saw them. version_now_ (the walk's
  // mirror) is persistent: the walk's commits keep it current and this refresh re-syncs
  // whatever changed outside the walk (unlocks), so afterwards version_now_[g] ==
  // last_version_[g] == the block's current version for every g.
  ForEachChangedBlock(
      blocks.version_tree(), group_seen_, last_version_,
      [&](size_t g) { return blocks.block(static_cast<BlockId>(g)).version(); },
      [&](size_t g) {
        BlockId id = static_cast<BlockId>(g);
        version_now_[g] = last_version_[g];
        snapshot_->RefreshAvailable(id, blocks.block(id).AvailableCurve());
        MarkDirty(id);
        ++stats_.blocks_refreshed;
      });
  if (metric_ != GreedyMetric::kDpack) {
    return;
  }
  // Membership signatures: best alphas depend on the requester set, so a membership change
  // (arrival, grant, eviction) dirties a block even when no capacity changed. Touched
  // entries are seeded lazily, and blocks that *lost* all requesters are handled off the
  // active list — O(batch refs + prev active), never O(members).
  const uint64_t stamp = cycle_stamp_;  // A local, so the loop's stores cannot force reloads.
  touched_ids_.clear();
  for (const Task& task : pending) {
    for (BlockId j : task.blocks) {
      size_t ji = static_cast<size_t>(j);
      if (touched_stamp_[ji] != stamp) {
        touched_stamp_[ji] = stamp;
        touched_ids_.push_back(j);
        sig_scratch_[ji] = kMemberSigSeed;
      }
      sig_scratch_[ji] = MemberSigMix(sig_scratch_[ji], static_cast<uint64_t>(task.id));
    }
  }
  for (BlockId g : active_ids_) {
    size_t gi = static_cast<size_t>(g);
    if (touched_stamp_[gi] != stamp && member_sig_[gi] != kMemberSigSeed) {
      member_sig_[gi] = kMemberSigSeed;
      MarkDirty(g);
    }
  }
  active_ids_.clear();
  for (BlockId g : touched_ids_) {
    size_t gi = static_cast<size_t>(g);
    if (sig_scratch_[gi] != member_sig_[gi]) {
      member_sig_[gi] = sig_scratch_[gi];
      MarkDirty(g);
    }
    if (member_sig_[gi] != kMemberSigSeed) {
      active_ids_.push_back(g);
    }
  }
  // Requester lists and best-alpha subproblems for the dirty blocks. Requesters are
  // collected in batch order, matching ComputeBestAlphas' item order exactly.
  if (dirty_ids_.empty()) {
    return;
  }
  for (BlockId g : dirty_ids_) {
    requesters_[static_cast<size_t>(g)].clear();
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    for (BlockId j : pending[i].blocks) {
      size_t ji = static_cast<size_t>(j);
      if (dirty_stamp_[ji] == stamp) {
        requesters_[ji].push_back(i);
      }
    }
  }
  // Per-block solves are independent, so dirty-list order (vs id order) is immaterial.
  for (BlockId g : dirty_ids_) {
    size_t gi = static_cast<size_t>(g);
    best_alpha_[gi] = BestAlphaForBlock(pending, requesters_[gi], snapshot_->available(g), eta_);
    ++stats_.best_alpha_recomputes;
  }
}

bool IncrementalEngine::ScoreTasks(std::span<const Task> pending, uint64_t previous_cycle) {
  if (metric_ != GreedyMetric::kDpf) {
    // Stamp the dirty blocks' tasks stale before their reuse-vs-rescore decisions.
    if (rindex_.size() < last_version_.size()) {
      rindex_.resize(last_version_.size());
    }
    for (BlockId id : dirty_ids_) {
      std::vector<TaskId>& tasks = rindex_[static_cast<size_t>(id)];
      for (size_t i = 0; i < tasks.size();) {
        size_t slot = cache_.Find(tasks[i]);
        if (slot == TaskCacheMap::kNpos || cache_.at(slot).last_seen != previous_cycle) {
          tasks[i] = tasks.back();  // Dead entry (granted, evicted, or purged): prune.
          tasks.pop_back();
          continue;
        }
        cache_.at(slot).stale_stamp = cycle_stamp_;
        ++i;
      }
    }
  }
  // Reserving up front means no slot moves mid-cycle: the cache entries the score pass
  // records (cache_of_index_) stay valid through the merge and the allocation walk.
  slots_moved_ |= cache_.Reserve(pending.size());
  // Score pass: one cache lookup per task decides between reuse and rescore; rescored tasks
  // contribute a fresh entry under a new generation, lazily superseding their old one.
  const uint64_t stamp = cycle_stamp_;
  for (size_t i = 0; i < pending.size(); ++i) {
    const Task& task = pending[i];
    size_t slot = cache_.FindOrInsert(task.id);
    TaskCache& cached = cache_.at(slot);
    cache_of_index_[i] = &cached;
    if (cached.last_seen == stamp) {
      return false;  // Duplicate id.
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
      ++stats_.tasks_reused;
      continue;
    }
    if (needs_index && metric_ != GreedyMetric::kDpf) {
      // New or re-resolved block list: register the task in the reverse index under each
      // requested block so future dirty blocks reach it. DPF never consults the index.
      for (BlockId j : task.blocks) {
        rindex_[static_cast<size_t>(j)].push_back(task.id);
      }
    }
    cached.score = ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_);
    cached.generation = next_generation_++;
    cached.blocks_ptr = task.blocks.data();
    cached.blocks_len = task.blocks.size();
    fresh_.push_back({cached.score, task.arrival_time, task.id, cached.generation, slot});
    ++stats_.tasks_rescored;
  }
  MergeHeap();
  return true;
}

void IncrementalEngine::MergeHeap() {
  // In-order merge of the surviving sorted entries (heap) with this cycle's rescored ones
  // (fresh) under the reference sort's total order. Stale entries are dropped here; when
  // slots moved (rehash or purge), heap entries re-resolve their cache slot via Find. The
  // ping-pong scratch persists across cycles, so steady-state merges never allocate.
  std::sort(fresh_.begin(), fresh_.end(), HeapEntryBefore);
  size_t out_capacity = merged_.capacity();
  merged_.clear();
  order_.clear();
  size_t hi = 0;
  size_t fi = 0;
  while (hi < heap_.size() || fi < fresh_.size()) {
    bool take_heap;
    if (hi >= heap_.size()) {
      take_heap = false;
    } else if (fi >= fresh_.size()) {
      take_heap = true;
    } else {
      take_heap = HeapEntryBefore(heap_[hi], fresh_[fi]);
    }
    if (take_heap) {
      HeapEntry entry = heap_[hi++];
      if (slots_moved_) {
        size_t slot = cache_.Find(entry.id);
        if (slot == TaskCacheMap::kNpos) {
          continue;  // Stale: purged.
        }
        entry.slot = slot;
      }
      const TaskCache& cached = cache_.at(entry.slot);
      if (cached.last_seen != cycle_stamp_ || cached.generation != entry.generation) {
        continue;  // Stale: superseded, granted, or evicted.
      }
      order_.push_back(cached.index);
      merged_.push_back(entry);
    } else {
      const HeapEntry& entry = fresh_[fi++];
      order_.push_back(cache_.at(entry.slot).index);
      merged_.push_back(entry);
    }
  }
  // dpack-lint: allow(float-equality): size_t buffer-capacity bookkeeping, not a budget double.
  if (merged_.capacity() != out_capacity) {
    ++stats_.merge_allocs;  // Output buffer grew.
  }
  heap_.swap(merged_);
  fresh_.clear();
  slots_moved_ = false;
}

std::vector<size_t> IncrementalEngine::AllocateWithMemos(std::span<const Task> pending,
                                                         BlockManager& blocks) {
  // The CANRUN walk over order_ — identical grants to AllocateInOrder on the same order —
  // with the reject memos living in each task's cache entry.
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

std::vector<size_t> IncrementalEngine::ScheduleBatch(std::span<const Task> pending,
                                                     BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  ++stats_.cycles;
  if (metric_ == GreedyMetric::kFcfs) {
    // Arrival order needs no scores, hence no cache: the engine is a pass-through.
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }
  CheckBlockIds(pending, blocks.block_count());

  ScheduleContextStats stats_at_entry = stats_;
  uint64_t previous_cycle = cycle_stamp_;
  ++cycle_stamp_;

  SyncBlocks(blocks, pending);
  cache_of_index_.resize(pending.size());
  if (!ScoreTasks(pending, previous_cycle)) {
    // Id-keyed caches cannot reproduce the recompute path's tie-breaking between tasks
    // that share an id: recompute this batch from scratch and start the caches over —
    // grants stay exactly the reference sequence. The partial pass's work is discarded,
    // so its counters are too.
    Invalidate();
    stats_ = stats_at_entry;
    ++stats_.full_recomputes;
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  std::vector<size_t> granted = AllocateWithMemos(pending, blocks);

  // Bound cache growth: once dead entries (granted or evicted tasks) dominate — long runs
  // with churn — rebuild keeping only the live ones. Heap entries re-resolve lazily.
  if (cache_.size() > 2 * pending.size() + 64) {
    cache_.PurgeNotSeen(cycle_stamp_);
    slots_moved_ = true;
  }
  return granted;
}

}  // namespace dpack
