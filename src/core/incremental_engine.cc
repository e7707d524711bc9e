#include "src/core/incremental_engine.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/check.h"

namespace dpack {

namespace {

constexpr uint64_t kNoReject = std::numeric_limits<uint64_t>::max();

// The engine's id-indexed arrays (stamps, version mirror, requester columns) are sized by
// the block count, so the block ids of every new or re-resolved task are checked before any
// of them is written. Other tasks were checked when they arrived, and blocks never go away.
void CheckBlockIds(const Task& task, size_t block_count) {
  for (BlockId j : task.blocks) {
    DPACK_CHECK_MSG(j >= 0 && static_cast<size_t>(j) < block_count,
                    "task " << task.id << " requests block " << j << " of " << block_count);
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
  // In place, so a purge never holds a second table. The scan starts just past an empty slot
  // (the table is at most half full), so no probe run wraps past its start, and an erase
  // only pulls entries from later in the scan back into the slot being examined.
  size_t mask = slots_.size() - 1;
  size_t start = 0;
  while (slots_[start].used) {
    ++start;
  }
  size_t i = (start + 1) & mask;
  for (size_t visited = 1; visited < slots_.size();) {
    if (slots_[i].used && slots_[i].value.last_seen != cycle) {
      EraseAt(i);  // Re-examine slot i: a later entry may have moved into it.
    } else {
      i = (i + 1) & mask;
      ++visited;
    }
  }
}

void TaskCacheMap::EraseAt(size_t hole) {
  // Backward-shift deletion: walk the probe run after the hole and move back every entry
  // whose home slot does not lie cyclically in (hole, j], so every lookup still finds it.
  size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    size_t home = Probe(slots_[j].id);
    bool stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (!stays) {
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

namespace {

// Available capacity is max(0, unlocked - consumed) with unlocked <= total, so an order whose
// consumption reached its total capacity can never be usable again.
bool Exhausted(const PrivacyBlock& block, size_t order) {
  return !(block.consumed().epsilon(order) < block.capacity().epsilon(order));
}

}  // namespace

BlockMembers::BlockMembers(const PrivacyBlock& block) {
  for (size_t a = 0; a < block.capacity().size(); ++a) {
    if (!Exhausted(block, a)) {
      orders_.push_back(a);
    }
  }
}

void BlockMembers::DropExhaustedOrders(const PrivacyBlock& block) {
  size_t kept = 0;
  for (size_t k = 0; k < orders_.size(); ++k) {
    if (Exhausted(block, orders_[k])) {
      continue;
    }
    if (kept != k) {
      orders_[kept] = orders_[k];
      if (stride_ > 0) {
        lows_[kept] = lows_[k];
        std::copy_n(values_.begin() + static_cast<std::ptrdiff_t>(At(1 + k, 0)), stride_,
                    values_.begin() + static_cast<std::ptrdiff_t>(At(1 + kept, 0)));
      }
    }
    ++kept;
  }
  if (kept == orders_.size()) {
    return;
  }
  orders_.resize(kept);
  if (stride_ > 0) {
    lows_.resize(kept);
    values_.resize(At(1 + kept, 0));  // The next Restride gives the rest back.
  }
}

RequesterColumns BlockMembers::columns() {
  std::span<const double> values(values_);
  return {values.empty() ? values : values.subspan(head_, count_), orders_,
          orders_.empty() ? std::span<const double>() : values.subspan(At(1, head_)), stride_,
          lows_};
}

void BlockMembers::Restride(size_t new_stride) {
  // Every array's size follows the stride, so a block's footprint follows its member count.
  DPACK_CHECK(count_ <= new_stride);
  size_t rows = 1 + orders_.size();
  std::vector<TaskId> ids(new_stride);
  std::vector<double> values(rows * new_stride);
  std::copy_n(ids_.begin() + static_cast<std::ptrdiff_t>(head_), count_, ids.begin());
  for (size_t r = 0; r < rows && stride_ > 0; ++r) {
    std::copy_n(values_.begin() + static_cast<std::ptrdiff_t>(At(r, head_)), count_,
                values.begin() + static_cast<std::ptrdiff_t>(r * new_stride));
  }
  ids_.swap(ids);
  values_.swap(values);
  stride_ = new_stride;
  head_ = 0;
  if (stride_ == 0) {
    lows_ = {};
  } else if (lows_.empty()) {
    lows_.resize(orders_.size());
  }
}

void BlockMembers::Slide() {
  auto slide = [&](auto* array) { std::copy(array + head_, array + head_ + count_, array); };
  slide(ids_.data());
  for (size_t r = 0; r <= orders_.size(); ++r) {
    slide(values_.data() + At(r, 0));
  }
  head_ = 0;
}

void BlockMembers::Reserve(size_t additional) {
  if (head_ + count_ + additional <= stride_) {
    return;
  }
  // Reuse the room departures left at the front if it is a quarter of the arrays (so each
  // slot gained costs at most three moves), else grow to fit.
  if (count_ + additional <= stride_ && 4 * head_ >= stride_) {
    Slide();
  } else {
    Restride(std::max<size_t>(8, std::bit_ceil(std::max(2 * stride_, count_ + additional))));
  }
}

void BlockMembers::Insert(size_t at, const Task& task) {
  DPACK_CHECK(at <= count_);
  Reserve(1);
  size_t pos = head_ + at;
  auto open = [&](auto* array) {  // Only a mid-list insert moves anything.
    if (at < count_) {
      std::copy_backward(array + pos, array + head_ + count_, array + head_ + count_ + 1);
    }
  };
  open(ids_.data());
  ids_[pos] = task.id;
  open(values_.data());
  values_[pos] = task.weight;
  for (size_t k = 0; k < orders_.size(); ++k) {
    open(values_.data() + At(1 + k, 0));
    double demand = task.demand.epsilon(orders_[k]);
    values_[At(1 + k, pos)] = demand;
    lows_[k].Add(demand);
  }
  ++count_;
}

void BlockMembers::RemoveLeaving(std::vector<size_t>& at) {
  // Find the leaving members (the scan stops at the last one). A leading run of them only
  // advances head_; the gaps after it close row by row, one move per kept run. Each demand
  // row drops its leaving demands from its summary first.
  std::span<const TaskId> live = ids();
  at.clear();
  for (size_t t = 0; t < live.size() && at.size() < leaving.size(); ++t) {
    if (live[t] == leaving[at.size()]) {
      at.push_back(t);
    }
  }
  DPACK_CHECK_MSG(at.size() == leaving.size(), "a leaving task is not a member of its block");
  leaving.clear();
  for (size_t k = 0; k < orders_.size(); ++k) {
    for (size_t t : at) {
      lows_[k].Drop(values_[At(1 + k, head_ + t)]);
    }
  }
  size_t front = 0;
  while (front < at.size() && at[front] == front) {
    ++front;
  }
  auto close_gaps = [&](auto* array) {
    size_t out = at[front];
    for (size_t r = front; r < at.size(); ++r) {
      size_t end = r + 1 < at.size() ? at[r + 1] : count_;
      out = static_cast<size_t>(std::copy(array + at[r] + 1, array + end, array + out) - array);
    }
  };
  if (front < at.size()) {
    close_gaps(ids_.data() + head_);
    for (size_t r = 0; r <= orders_.size(); ++r) {
      close_gaps(values_.data() + At(r, head_));
    }
  }
  head_ += front;
  count_ -= at.size();
  size_t fit = count_ == 0 ? 0 : std::max<size_t>(8, 2 * count_);
  if (4 * count_ <= stride_ && fit < stride_) {
    Restride(fit);  // The queue has moved on from this block: give the columns back.
  }
}

void BlockMembers::Clear() {
  head_ = 0;
  count_ = 0;
  std::fill(lows_.begin(), lows_.end(), SmallestDemands{});
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

bool IncrementalEngine::ObserveBatch(std::span<const Task> pending, size_t block_count,
                                     uint64_t previous_cycle) {
  // Reserving up front means no slot moves mid-cycle: the slots recorded here
  // (slot_of_index_) stay valid through the merge and the allocation walk.
  slots_moved_ |= cache_.Reserve(pending.size());
  slot_of_index_.resize(pending.size());
  const uint64_t stamp = cycle_stamp_;
  const bool dpack = metric_ == GreedyMetric::kDpack;
  leaving_.clear();
  joining_.clear();
  prev_batch_.swap(batch_);
  batch_.clear();
  member_refs_ = 0;
  members_ordered_ = true;
  tail_start_ = 0;
  size_t walk = 0;  // Next unmatched entry of prev_batch_.
  for (size_t i = 0; i < pending.size(); ++i) {
    const Task& task = pending[i];
    size_t slot = cache_.FindOrInsert(task.id);
    slot_of_index_[i] = slot;
    TaskCache& cached = cache_.at(slot);
    if (cached.last_seen == stamp) {
      return false;  // Duplicate id.
    }
    // A cache entry is only trustworthy if the task was pending, and not granted, in the
    // immediately preceding cycle with an unchanged block list (the vector buffer travels
    // with the task on moves; reallocation on late resolution changes the pointer).
    bool was_pending = cached.last_seen == previous_cycle;
    cached.rescore = !was_pending || cached.granted || cached.blocks_ptr != task.blocks.data() ||
                     cached.blocks_len != task.blocks.size();
    cached.granted = false;
    cached.last_seen = stamp;
    cached.index = static_cast<uint32_t>(i);
    if (cached.rescore) {
      CheckBlockIds(task, block_count);
      cached.reject_vsum = kNoReject;  // No feasibility memo.
    }
    // A re-resolved task keeps its old member blocks recorded until it has left them.
    bool rejoins = false;
    if (dpack) {
      batch_.push_back({task.id, 0, 0});
      if (!was_pending) {
        joining_.push_back(i);
      } else {
        tail_start_ = i + 1;
        // The previous batch's tasks skipped on the way to this one have departed (granted
        // or evicted). Running off its end means this batch reordered the previous one.
        while (walk < prev_batch_.size() && prev_batch_[walk].id != task.id) {
          leaving_.push_back(prev_batch_[walk++]);
        }
        if (walk == prev_batch_.size()) {
          members_ordered_ = false;
        } else {
          const BatchMember& before = prev_batch_[walk++];
          if (cached.rescore && !std::ranges::equal(task.blocks, MemberOf(before))) {
            leaving_.push_back(before);  // Leaves its old blocks, joins its new ones.
            joining_.push_back(i);
            rejoins = true;
          } else {
            batch_.back() = before;
            member_refs_ += before.member_len;
          }
        }
      }
    }
    if (cached.rescore && !rejoins) {
      cached.blocks_ptr = task.blocks.data();
      cached.blocks_len = static_cast<uint32_t>(task.blocks.size());
    }
  }
  if (dpack) {
    leaving_.insert(leaving_.end(), prev_batch_.begin() + static_cast<std::ptrdiff_t>(walk),
                    prev_batch_.end());
  }
  return true;
}

void IncrementalEngine::Join(size_t index, const Task& task) {
  TaskCache& cached = cache_.at(slot_of_index_[index]);
  cached.blocks_ptr = task.blocks.data();
  cached.blocks_len = static_cast<uint32_t>(task.blocks.size());
  batch_[index] = {task.id, static_cast<uint32_t>(member_pool_.size()), cached.blocks_len};
  member_pool_.insert(member_pool_.end(), task.blocks.begin(), task.blocks.end());
  member_refs_ += task.blocks.size();
}

void IncrementalEngine::CompactMemberPool() {
  if (member_pool_.size() <= 2 * member_refs_ + 4096) {
    return;
  }
  pool_scratch_.clear();
  for (BatchMember& member : batch_) {
    std::span<const BlockId> blocks = MemberOf(member);
    member.member_at = static_cast<uint32_t>(pool_scratch_.size());
    pool_scratch_.insert(pool_scratch_.end(), blocks.begin(), blocks.end());
  }
  member_pool_.swap(pool_scratch_);
}

void IncrementalEngine::SyncBlocks(const BlockManager& blocks, std::span<const Task> pending) {
  if (!snapshot_.has_value()) {
    snapshot_.emplace(blocks.grid());
  }
  size_t count = blocks.block_count();
  size_t known = last_version_.size();
  DPACK_CHECK_MSG(count >= known, "blocks disappeared: Invalidate() before a new manager");
  const bool dpack = metric_ == GreedyMetric::kDpack;
  dirty_ids_.clear();
  dirty_stamp_.resize(count, 0);
  rescore_stamp_.resize(count, 0);
  for (size_t g = known; g < count; ++g) {
    const PrivacyBlock& b = blocks.block(static_cast<BlockId>(g));
    snapshot_->Append(b.AvailableCurve(), b.capacity());
    last_version_.push_back(b.version());
    version_now_.push_back(b.version());
    best_alpha_.push_back(0);
    if (dpack) {
      members_.emplace_back(b);
    }
    MarkDirty(static_cast<BlockId>(g));
    rescore_stamp_[g] = cycle_stamp_;
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
        if (dpack) {
          members_[g].DropExhaustedOrders(blocks.block(id));
        }
        MarkDirty(id);
        rescore_stamp_[g] = cycle_stamp_;
        ++stats_.blocks_refreshed;
      });
  if (!dpack) {
    return;
  }
  // Membership: best alphas depend on the requester set, so a block whose requesters left
  // or joined is dirty even when no capacity changed. The events are queued per block in
  // batch order; each dirty block applies its own below, before its solve.
  if (!members_ordered_) {
    RebuildMembers(pending);
  } else {
    for (const BatchMember& gone : leaving_) {
      for (BlockId j : MemberOf(gone)) {
        MarkDirty(j);
        members_[static_cast<size_t>(j)].leaving.push_back(gone.id);
      }
    }
    for (size_t i : joining_) {
      const Task& task = pending[i];
      Join(i, task);
      for (BlockId j : task.blocks) {
        MarkDirty(j);
        members_[static_cast<size_t>(j)].joining.push_back(i);
      }
    }
  }
  CompactMemberPool();
  // Per-block solves are independent, so dirty-list order (vs id order) is immaterial. A
  // membership change alone rescores the block's tasks only if it moved the best alpha.
  const uint64_t stamp = cycle_stamp_;
  for (BlockId g : dirty_ids_) {
    size_t gi = static_cast<size_t>(g);
    BlockMembers& members = members_[gi];
    if (!members.leaving.empty()) {
      members.RemoveLeaving(positions_);
    }
    members.Reserve(members.joining.size());
    for (size_t i : members.joining) {
      members.Insert(MemberPosition(members, i), pending[i]);
    }
    members.joining.clear();
    size_t best = BestAlphaForBlock(members.columns(), snapshot_->available(g), eta_);
    if (best != best_alpha_[gi]) {
      best_alpha_[gi] = best;
      rescore_stamp_[gi] = stamp;
    }
    ++stats_.best_alpha_recomputes;
  }
}

size_t IncrementalEngine::MemberPosition(const BlockMembers& members, size_t index) const {
  // Tasks from tail_start_ on are all new and join in batch order, so they append. An
  // earlier joiner (re-resolved, or new in mid-batch) goes after the members that precede
  // it in this batch, found by bisection on their batch positions.
  size_t lo = 0;
  std::span<const TaskId> ids = members.ids();
  size_t hi = ids.size();
  if (index >= tail_start_) {
    return hi;
  }
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (cache_.at(cache_.Find(ids[mid])).index < index) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void IncrementalEngine::RebuildMembers(std::span<const Task> pending) {
  // Rare: only a batch that reorders the previous one's tasks gets here. Every list is
  // rebuilt in batch order; a block is dirty iff its requester sequence changed.
  std::vector<std::vector<TaskId>> before(members_.size());
  for (size_t g = 0; g < members_.size(); ++g) {
    before[g].assign(members_[g].ids().begin(), members_[g].ids().end());
    members_[g].Clear();
    members_[g].leaving.clear();
    members_[g].joining.clear();
  }
  member_refs_ = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    const Task& task = pending[i];
    Join(i, task);
    for (BlockId j : task.blocks) {
      BlockMembers& members = members_[static_cast<size_t>(j)];
      members.Insert(members.ids().size(), task);
    }
  }
  for (size_t g = 0; g < members_.size(); ++g) {
    if (!std::ranges::equal(members_[g].ids(), before[g])) {
      MarkDirty(static_cast<BlockId>(g));
    }
  }
}

void IncrementalEngine::ScoreTasks(std::span<const Task> pending) {
  // Score pass: tasks ObserveBatch flagged are always scored; any other reuses its cached
  // score unless one of its blocks changed a score input this cycle. Rescored tasks
  // contribute a fresh entry under a new generation, lazily superseding their old one.
  const uint64_t stamp = cycle_stamp_;
  for (size_t i = 0; i < pending.size(); ++i) {
    const Task& task = pending[i];
    size_t slot = slot_of_index_[i];
    TaskCache& cached = cache_.at(slot);
    if (!cached.rescore &&
        (metric_ == GreedyMetric::kDpf ||
         std::none_of(task.blocks.begin(), task.blocks.end(), [&](BlockId j) {
           return rescore_stamp_[static_cast<size_t>(j)] == stamp;
         }))) {
      // DPF never goes stale: its scores read only total capacities, which never change for
      // a fixed list.
      ++stats_.tasks_reused;
      continue;
    }
    cached.score = ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_);
    cached.generation = next_generation_++;
    fresh_.push_back({cached.score, task.arrival_time, task.id, cached.generation, slot});
    ++stats_.tasks_rescored;
  }
  MergeHeap();
}

void IncrementalEngine::MergeHeap() {
  // In-order merge of the surviving sorted entries (heap) with this cycle's rescored ones
  // (fresh) under the reference sort's total order. Stale entries are dropped here; when
  // slots moved (rehash or purge), heap entries re-resolve their cache slot via Find. The
  // ping-pong scratch persists across cycles, so steady-state merges never allocate.
  SortHeapEntries(fresh_, sort_scratch_);
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
    TaskCache& cached = cache_.at(slot_of_index_[idx]);
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
    cached.granted = true;  // The grant removes the task from the queue.
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

  ScheduleContextStats stats_at_entry = stats_;
  uint64_t previous_cycle = cycle_stamp_;
  ++cycle_stamp_;

  if (!ObserveBatch(pending, blocks.block_count(), previous_cycle)) {
    // Id-keyed caches cannot reproduce the recompute path's tie-breaking between tasks
    // that share an id: recompute this batch from scratch and start the caches over —
    // grants stay exactly the reference sequence. The partial pass's work is discarded,
    // so its counters are too.
    Invalidate();
    stats_ = stats_at_entry;
    ++stats_.full_recomputes;
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }
  SyncBlocks(blocks, pending);
  ScoreTasks(pending);
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
