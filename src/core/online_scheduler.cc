#include "src/core/online_scheduler.h"

#include <algorithm>
#include <chrono>

#include "src/common/check.h"
#include "src/core/fairness.h"

namespace dpack {

OnlineScheduler::OnlineScheduler(std::unique_ptr<Scheduler> inner, BlockManager* blocks,
                                 OnlineSchedulerConfig config)
    : inner_(std::move(inner)), blocks_(blocks), config_(config) {
  DPACK_CHECK(inner_ != nullptr);
  DPACK_CHECK(blocks_ != nullptr);
  DPACK_CHECK(config_.period > 0.0);
  DPACK_CHECK(config_.unlock_steps >= 1);
  if (config_.fair_share_n <= 0) {
    config_.fair_share_n = config_.unlock_steps;
  }
}

const ScheduleContextStats* OnlineScheduler::context_stats() const {
  const auto* greedy = dynamic_cast<const GreedyScheduler*>(inner_.get());
  if (greedy == nullptr || greedy->engine() == nullptr) {
    return nullptr;
  }
  return &greedy->engine()->stats();
}

void OnlineScheduler::RestoreState(std::vector<Task> pending, AllocationMetrics metrics) {
  DPACK_CHECK_MSG(pending_.empty() && metrics_.submitted() == 0,
                  "RestoreState requires a fresh driver");
  for (const Task& task : pending) {
    for (BlockId id : task.blocks) {
      DPACK_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < blocks_->block_count(),
                      "restored pending task references an unknown block");
    }
  }
  pending_ = std::move(pending);
  metrics_ = std::move(metrics);
}

void OnlineScheduler::ResolveBlocks(Task& task) {
  if (!task.blocks.empty() || task.num_recent_blocks == 0) {
    return;
  }
  if (blocks_->block_count() == 0) {
    return;  // Retry at the next cycle.
  }
  task.blocks = blocks_->MostRecentBlocks(task.num_recent_blocks);
}

bool OnlineScheduler::Submit(Task task) {
  if (config_.admission_queue_capacity > 0 &&
      pending_.size() >= config_.admission_queue_capacity) {
    ++admission_rejected_;
    return false;
  }
  ResolveBlocks(task);
  bool fair = !task.blocks.empty() &&
              IsFairShareTask(task, *blocks_, config_.fair_share_n);
  metrics_.RecordSubmission(task.weight, fair);
  pending_.push_back(std::move(task));
  return true;
}

size_t OnlineScheduler::RunCycle(double now) {
  blocks_->UpdateUnlocks(now, config_.period, config_.unlock_steps);

  // Late block-request resolution for tasks submitted before any block existed.
  for (Task& task : pending_) {
    ResolveBlocks(task);
  }

  // Evict tasks that waited past their timeout.
  auto evict_it = std::remove_if(pending_.begin(), pending_.end(), [&](const Task& task) {
    bool timed_out = now - task.arrival_time > task.timeout;
    if (timed_out) {
      metrics_.RecordEviction(task.weight);
    }
    return timed_out;
  });
  pending_.erase(evict_it, pending_.end());

  // Wall-clock reads below time the cycle for AllocationMetrics only; the measured
  // duration never feeds scoring, ordering, or feasibility, so grants stay deterministic.
  // dpack-lint: allow(nondeterministic-source): metrics-only cycle timing, never feeds grants.
  auto start = std::chrono::steady_clock::now();
  std::vector<size_t> granted = inner_->ScheduleBatch(pending_, *blocks_);
  // dpack-lint: allow(nondeterministic-source): metrics-only cycle timing, never feeds grants.
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  metrics_.RecordCycleRuntime(seconds);

  // Record grants and drop them from the queue (preserving arrival order of the rest).
  last_granted_.clear();
  std::vector<bool> taken(pending_.size(), false);
  for (size_t idx : granted) {
    taken[idx] = true;
    const Task& task = pending_[idx];
    bool fair = IsFairShareTask(task, *blocks_, config_.fair_share_n);
    metrics_.RecordAllocation(task.weight, now - task.arrival_time, fair);
    last_granted_.push_back(task.id);
  }
  // Compacted in place, so the queue keeps its capacity for the next submits; moves carry
  // each survivor's block-vector buffer along, which the engine's rejection memo keys on.
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!taken[i]) {
      if (kept != i) {
        pending_[kept] = std::move(pending_[i]);
      }
      ++kept;
    }
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(kept), pending_.end());
  return granted.size();
}

}  // namespace dpack
