#include "src/core/scheduler.h"

#include <algorithm>

#include "src/common/check.h"

namespace dpack {

GreedyScheduler::GreedyScheduler(GreedyMetric metric, GreedySchedulerOptions options)
    : metric_(metric), options_(options) {
  DPACK_CHECK(options_.eta > 0.0);
  if (options_.incremental) {
    engine_ = std::make_unique<IncrementalEngine>(metric_, options_.eta);
  }
}

std::string GreedyScheduler::name() const {
  switch (metric_) {
    case GreedyMetric::kDpf:
      return "DPF";
    case GreedyMetric::kArea:
      return "Area";
    case GreedyMetric::kDpack:
      return "DPack";
    case GreedyMetric::kFcfs:
      return "FCFS";
  }
  return "Greedy";
}

std::vector<size_t> GreedyScheduler::ScheduleBatch(std::span<const Task> pending,
                                                   BlockManager& blocks) {
  if (engine_ != nullptr) {
    return engine_->ScheduleBatch(pending, blocks);
  }
  return RecomputeScheduleBatch(metric_, options_.eta, pending, blocks);
}

OptimalScheduler::OptimalScheduler(PkOptions options) : options_(options) {}

std::vector<size_t> OptimalScheduler::ScheduleBatch(std::span<const Task> pending,
                                                    BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  size_t num_blocks = blocks.block_count();
  size_t num_orders = blocks.grid()->size();
  instance_.tasks.clear();
  if (instance_.num_blocks != num_blocks || instance_.num_orders != num_orders) {
    instance_.num_blocks = num_blocks;
    instance_.num_orders = num_orders;
    instance_.capacity.resize(num_blocks * num_orders);
  }
  // Refill the available capacity in place (consumption and unlocking move every cycle).
  for (size_t j = 0; j < num_blocks; ++j) {
    const PrivacyBlock& block = blocks.block(static_cast<BlockId>(j));
    for (size_t a = 0; a < num_orders; ++a) {
      instance_.capacity[j * num_orders + a] = block.AvailableAt(a);
    }
  }
  // Map batch tasks (skipping unresolved ones) to instance tasks.
  batch_index_.clear();
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].blocks.empty()) {
      continue;
    }
    PkTask pk;
    pk.weight = pending[i].weight;
    pk.blocks.reserve(pending[i].blocks.size());
    for (BlockId j : pending[i].blocks) {
      pk.blocks.push_back(static_cast<size_t>(j));
    }
    pk.demand = pending[i].demand.epsilons();
    instance_.tasks.push_back(std::move(pk));
    batch_index_.push_back(i);
  }
  if (instance_.tasks.empty()) {
    return {};
  }
  // DPack's selection on the same batch seeds the search, so Optimal never grants less
  // weight than DPack, even when the node or time budget stops the search.
  BlockManager scratch = blocks.Clone();
  std::vector<size_t> seed;
  for (size_t i : RecomputeScheduleBatch(GreedyMetric::kDpack, GreedySchedulerOptions{}.eta,
                                         pending, scratch)) {
    auto it = std::lower_bound(batch_index_.begin(), batch_index_.end(), i);
    if (it != batch_index_.end() && *it == i) {
      seed.push_back(static_cast<size_t>(it - batch_index_.begin()));
    }
  }
  PkResult result = SolvePrivacyKnapsackExact(instance_, options_, seed);
  last_solve_optimal_ = result.optimal;

  // Commit the solution. The set fits at some order per block, so sequential commits pass
  // the filters (feasibility of the exists-alpha constraint is subset-monotone).
  std::vector<size_t> granted;
  granted.reserve(result.selected.size());
  for (size_t k : result.selected) {
    size_t i = batch_index_[k];
    const Task& task = pending[i];
    for (BlockId j : task.blocks) {
      DPACK_CHECK_MSG(blocks.block(j).CanAccept(task.demand),
                      "optimal solution rejected by filter");
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
    }
    granted.push_back(i);
  }
  return granted;
}

std::string SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kDpack:
      return "DPack";
    case SchedulerKind::kDpf:
      return "DPF";
    case SchedulerKind::kArea:
      return "Area";
    case SchedulerKind::kFcfs:
      return "FCFS";
    case SchedulerKind::kOptimal:
      return "Optimal";
  }
  return "unknown";
}

std::unique_ptr<Scheduler> CreateScheduler(SchedulerKind kind, PkOptions optimal_options) {
  switch (kind) {
    case SchedulerKind::kDpack:
      return std::make_unique<GreedyScheduler>(GreedyMetric::kDpack);
    case SchedulerKind::kDpf:
      return std::make_unique<GreedyScheduler>(GreedyMetric::kDpf);
    case SchedulerKind::kArea:
      return std::make_unique<GreedyScheduler>(GreedyMetric::kArea);
    case SchedulerKind::kFcfs:
      return std::make_unique<GreedyScheduler>(GreedyMetric::kFcfs);
    case SchedulerKind::kOptimal:
      return std::make_unique<OptimalScheduler>(optimal_options);
  }
  DPACK_CHECK_MSG(false, "unhandled scheduler kind");
  return nullptr;
}

}  // namespace dpack
