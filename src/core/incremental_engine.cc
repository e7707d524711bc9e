#include "src/core/incremental_engine.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace dpack {

namespace {

// The engine's id-indexed arrays (stamps, version mirror, requester columns) are sized by
// the block count, so the block ids of every new or re-resolved task are checked before any
// of them is written. Other tasks were checked when they arrived, and blocks never go away.
void CheckBlockIds(const Task& task, size_t block_count) {
  for (BlockId j : task.blocks) {
    DPACK_CHECK_MSG(j >= 0 && static_cast<size_t>(j) < block_count,
                    "task " << task.id << " requests block " << j << " of " << block_count);
  }
}

// A fresh entry, without a memo, for `task` at `key`.
TaskEntry EntryOf(const Task& task, uint64_t key) {
  TaskEntry entry;
  entry.id = task.id;
  entry.key = key;
  entry.blocks_ptr = task.blocks.data();
  entry.blocks_len = static_cast<uint32_t>(task.blocks.size());
  return entry;
}

}  // namespace

TaskIndex::TaskIndex() { slots_.resize(1024); }

size_t TaskIndex::Probe(TaskId id) const {
  uint64_t h = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h) & (slots_.size() - 1);
}

uint64_t TaskIndex::Find(TaskId id) const {
  size_t i = Probe(id);
  while (slots_[i].key != kAbsent) {
    if (slots_[i].id == id) {
      return slots_[i].key;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
  return kAbsent;
}

void TaskIndex::Insert(TaskId id, uint64_t key) {
  DPACK_CHECK(key != kAbsent);
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    Rehash(2 * slots_.size());
  }
  size_t i = Probe(id);
  while (slots_[i].key != kAbsent) {
    DPACK_CHECK_MSG(slots_[i].id != id, "TaskIndex insert of a present id");
    i = (i + 1) & (slots_.size() - 1);
  }
  slots_[i] = {id, key};
  ++size_;
}

void TaskIndex::Rehash(size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  for (const Slot& slot : old) {
    if (slot.key != kAbsent) {
      size_t i = Probe(slot.id);
      while (slots_[i].key != kAbsent) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = slot;
    }
  }
}

void TaskIndex::Erase(TaskId id) {
  size_t mask = slots_.size() - 1;
  size_t hole = Probe(id);
  for (; slots_[hole].key == kAbsent || slots_[hole].id != id; hole = (hole + 1) & mask) {
    DPACK_CHECK_MSG(slots_[hole].key != kAbsent, "TaskIndex erase of an absent id");
  }
  // Backward-shift deletion: walk the probe run after the hole and move back every entry
  // whose home slot does not lie cyclically in (hole, j], so every lookup still finds it.
  for (size_t j = (hole + 1) & mask; slots_[j].key != kAbsent; j = (j + 1) & mask) {
    size_t home = Probe(slots_[j].id);
    bool stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (!stays) {
      slots_[hole] = slots_[j];
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
  // advances head_. The other gaps close row by row, moving the shorter side: the members
  // after the first gap shift left, or those before the last gap shift right and head_
  // advances past the vacated front. Either way each kept run moves once. Each demand row
  // drops its leaving demands from its summary first.
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
  const size_t gone = at.size();
  // Kept members on each side: after the first gap past the leading run, before the last.
  const size_t after = front < gone ? count_ - at[front] - (gone - front) : 0;
  const size_t before = front < gone ? at.back() + 1 - gone : 0;
  auto close_left = [&](auto* array) {
    size_t out = at[front];
    for (size_t r = front; r < gone; ++r) {
      size_t end = r + 1 < gone ? at[r + 1] : count_;
      out = static_cast<size_t>(std::copy(array + at[r] + 1, array + end, array + out) - array);
    }
  };
  auto close_right = [&](auto* array) {
    size_t out = at.back() + 1;
    for (size_t r = gone; r-- > front;) {
      size_t begin = r == 0 ? 0 : at[r - 1] + 1;
      out = static_cast<size_t>(
          std::copy_backward(array + begin, array + at[r], array + out) - array);
    }
  };
  auto close_gaps = [&](auto* array) {
    if (before < after) {
      close_right(array);
    } else {
      close_left(array);
    }
  };
  if (front < gone) {
    close_gaps(ids_.data() + head_);
    for (size_t r = 0; r <= orders_.size(); ++r) {
      close_gaps(values_.data() + At(r, head_));
    }
  }
  head_ += front < gone && before < after ? gone : front;
  count_ -= gone;
  size_t fit = count_ == 0 ? 0 : std::max<size_t>(8, 2 * count_);
  if (4 * count_ <= stride_ && fit < stride_) {
    Restride(fit);  // The queue has moved on from this block: give the columns back.
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

bool IncrementalEngine::ObserveBatch(std::span<const Task> pending, size_t block_count) {
  const bool dpack = metric_ == GreedyMetric::kDpack;
  prev_batch_.swap(batch_);
  batch_.clear();
  leaving_.clear();
  joining_.clear();
  member_refs_ = 0;
  size_t walk = 0;  // The next entry of prev_batch_ neither carried nor departed.
  auto depart = [&](size_t k) {
    const TaskEntry& gone = prev_batch_[k];
    if (!gone.granted) {  // The walk that granted it took it out of the index.
      index_.Erase(gone.id);
    }
    if (dpack) {
      leaving_.push_back(static_cast<uint32_t>(k));
    }
  };
  auto arrive = [&](size_t i, const Task& task, uint64_t key) {
    CheckBlockIds(task, block_count);
    batch_.push_back(EntryOf(task, key));
    if (dpack) {
      joining_.push_back(i);
    }
  };
  size_t i = 0;
  for (; i < pending.size(); ++i) {
    const Task& task = pending[i];
    // In the steady state the walk's next entry is the task's own; only a mismatch asks the
    // index whether the task is an arrival or a survivor whose predecessors departed.
    bool carried = walk < prev_batch_.size() && prev_batch_[walk].id == task.id &&
                   !prev_batch_[walk].granted;
    if (!carried) {
      uint64_t key = index_.Find(task.id);
      if (key == TaskIndex::kAbsent) {
        break;  // The first arrival: a new task, or one whose entry the walk passed.
      }
      if (walk == prev_batch_.size() || key < prev_batch_[walk].key) {
        return false;  // Its entry is behind the walk and still indexed: carried already.
      }
      while (prev_batch_[walk].key < key) {
        depart(walk++);
      }
      DPACK_CHECK(prev_batch_[walk].id == task.id);
    }
    const TaskEntry& before = prev_batch_[walk];
    if (before.blocks_ptr == task.blocks.data() && before.blocks_len == task.blocks.size()) {
      batch_.push_back(before);
      member_refs_ += before.blocks_len;
    } else {
      // Its block list changed (late resolution): it leaves its old blocks and joins its
      // new ones in its place, without the old list's memo.
      if (dpack) {
        leaving_.push_back(static_cast<uint32_t>(walk));
      }
      arrive(i, task, before.key);
    }
    ++walk;
  }
  // From the first arrival on every task arrives, so the arrivals form the batch's tail and
  // the previous batch's remaining entries all depart.
  tail_start_ = i;
  while (walk < prev_batch_.size()) {
    depart(walk++);
  }
  for (; i < pending.size(); ++i) {
    const Task& task = pending[i];
    if (index_.Find(task.id) != TaskIndex::kAbsent) {
      return false;  // A second task with the id of a carried task or of an arrival.
    }
    index_.Insert(task.id, next_key_);
    arrive(i, task, next_key_++);
  }
  return true;
}

void IncrementalEngine::Join(size_t index, const Task& task) {
  batch_[index].member_at = static_cast<uint32_t>(member_pool_.size());
  member_pool_.insert(member_pool_.end(), task.blocks.begin(), task.blocks.end());
  member_refs_ += task.blocks.size();
}

void IncrementalEngine::CompactMemberPool() {
  if (member_pool_.size() <= 2 * member_refs_ + 4096) {
    return;
  }
  pool_scratch_.clear();
  for (TaskEntry& entry : batch_) {
    std::span<const BlockId> blocks = MemberOf(entry);
    entry.member_at = static_cast<uint32_t>(pool_scratch_.size());
    pool_scratch_.insert(pool_scratch_.end(), blocks.begin(), blocks.end());
  }
  member_pool_.swap(pool_scratch_);
}

void IncrementalEngine::SyncBlocks(const BlockManager& blocks, std::span<const Task> pending) {
  size_t count = blocks.block_count();
  size_t known = last_version_.size();
  DPACK_CHECK_MSG(count >= known, "blocks disappeared: Invalidate() before a new manager");
  const bool dpack = metric_ == GreedyMetric::kDpack;
  dirty_ids_.clear();
  dirty_stamp_.resize(count, 0);
  for (size_t g = known; g < count; ++g) {
    const PrivacyBlock& b = blocks.block(static_cast<BlockId>(g));
    last_version_.push_back(b.version());
    version_now_.push_back(b.version());
    // The dirty list and the per-block solve state feed only the DPack solve below.
    if (dpack) {
      best_alpha_.push_back(0);
      members_.emplace_back(b);
      MarkDirty(static_cast<BlockId>(g));
    }
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
        if (dpack) {
          members_[g].DropExhaustedOrders(blocks.block(id));
          MarkDirty(id);
        }
        ++stats_.blocks_refreshed;
      });
  if (!dpack) {
    return;
  }
  // Membership: best alphas depend on the requester set, so a block whose requesters left
  // or joined is dirty even when no capacity changed. The events are queued per block in
  // batch order; each dirty block applies its own below, before its solve.
  for (uint32_t k : leaving_) {
    const TaskEntry& gone = prev_batch_[k];
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
  CompactMemberPool();
  // Per-block solves are independent, so dirty-list order (vs id order) is immaterial.
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
    best_alpha_[gi] = BestAlphaForBlock(members.columns(), blocks.block(g), eta_);
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
  // Keys increase along the batch, so comparing keys compares batch positions.
  const uint64_t key = batch_[index].key;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (index_.Find(ids[mid]) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool IncrementalEngine::Accepts(const Task& task, const BlockManager& blocks,
                                TaskEntry& entry) const {
  for (BlockId j : task.blocks) {
    if (!blocks.block(j).CanAccept(task.demand)) {
      entry.reject_block = j;
      entry.reject_version = version_now_[static_cast<size_t>(j)];
      return false;
    }
  }
  return true;
}

void IncrementalEngine::CollectCandidates(std::span<const Task> pending,
                                          const BlockManager& blocks) {
  // Only the tasks every block accepts now can be granted this cycle (see the header), so
  // only they are scored. A memo whose block kept its version settles a task unchecked.
  candidates_.clear();
  for (size_t i = 0; i < pending.size(); ++i) {
    const Task& task = pending[i];
    if (task.blocks.empty()) {
      continue;  // Unresolved block request.
    }
    TaskEntry& entry = batch_[i];
    if (entry.reject_block != TaskEntry::kNoMemo &&
        version_now_[static_cast<size_t>(entry.reject_block)] == entry.reject_version) {
      ++stats_.tasks_reused;
      continue;
    }
    if (!Accepts(task, blocks, entry)) {
      continue;
    }
    entry.reject_block = TaskEntry::kNoMemo;
    double score = ScoreGreedyTask(metric_, task, blocks, best_alpha_);
    candidates_.push_back({score, task.arrival_time, task.id, i});
    ++stats_.tasks_rescored;
  }
}

std::vector<size_t> IncrementalEngine::AllocateCandidates(std::span<const Task> pending,
                                                          BlockManager& blocks) {
  // The CANRUN walk over the candidates in allocation order — identical grants to
  // AllocateInOrder over the whole batch, since every other task is rejected at its turn.
  // The pass checked every candidate against its blocks at the start of the cycle, and only
  // a commit changes a block during the walk, so a candidate is checked again only if the
  // walk has committed to one of its blocks (its version mirror moved off last_version_).
  std::vector<size_t> granted;
  for (const HeapEntry& candidate : candidates_) {
    const Task& task = pending[candidate.slot];
    TaskEntry& entry = batch_[candidate.slot];
    bool touched = std::ranges::any_of(task.blocks, [&](BlockId j) {
      return version_now_[static_cast<size_t>(j)] != last_version_[static_cast<size_t>(j)];
    });
    if (touched && !Accepts(task, blocks, entry)) {
      continue;
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
      version_now_[static_cast<size_t>(j)] = blocks.block(j).version();
    }
    entry.granted = true;
    index_.Erase(task.id);
    granted.push_back(candidate.slot);
  }
  return granted;
}

std::vector<size_t> IncrementalEngine::ScheduleBatch(std::span<const Task> pending,
                                                     BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  ++stats_.cycles;
  ScheduleContextStats stats_at_entry = stats_;
  ++cycle_stamp_;

  if (!ObserveBatch(pending, blocks.block_count())) {
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
  // The candidate buffers keep room for a whole batch, rounded up to a power of two, so they
  // grow only when the queue reaches a new maximum, and a growing queue regrows them rarely.
  size_t held = candidates_.capacity() + sort_scratch_.capacity();
  candidates_.reserve(std::bit_ceil(pending.size()));
  sort_scratch_.reserve(std::bit_ceil(pending.size()));
  CollectCandidates(pending, blocks);
  SortHeapEntries(candidates_, sort_scratch_);
  if (candidates_.capacity() + sort_scratch_.capacity() > held) {
    ++stats_.merge_allocs;
  }
  return AllocateCandidates(pending, blocks);
}

}  // namespace dpack
