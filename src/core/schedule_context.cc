#include "src/core/schedule_context.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"

namespace dpack {

namespace {

// Sorts task indices by score descending, breaking ties by arrival time then id so results
// are deterministic. This is the recompute path's ordering; the incremental engine's
// HeapEntryBefore reproduces it exactly for unique ids.
std::vector<size_t> OrderByScoreDesc(std::span<const Task> pending,
                                     std::span<const double> scores) {
  std::vector<size_t> order(pending.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) {
      return scores[a] > scores[b];
    }
    if (pending[a].arrival_time != pending[b].arrival_time) {
      return pending[a].arrival_time < pending[b].arrival_time;
    }
    return pending[a].id < pending[b].id;
  });
  return order;
}

std::vector<size_t> FcfsOrder(std::span<const Task> pending) {
  std::vector<size_t> order(pending.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pending[a].arrival_time != pending[b].arrival_time) {
      return pending[a].arrival_time < pending[b].arrival_time;
    }
    return pending[a].id < pending[b].id;
  });
  return order;
}

}  // namespace

std::vector<size_t> AllocateInOrder(std::span<const Task> pending, BlockManager& blocks,
                                    std::span<const size_t> order) {
  std::vector<size_t> granted;
  for (size_t idx : order) {
    const Task& task = pending[idx];
    if (task.blocks.empty()) {
      continue;  // Unresolved block request (no blocks in the system yet).
    }
    bool can_run = true;
    for (BlockId j : task.blocks) {
      if (!blocks.block(j).CanAccept(task.demand)) {
        can_run = false;
        break;
      }
    }
    if (!can_run) {
      continue;
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
    }
    granted.push_back(idx);
  }
  return granted;
}

std::vector<size_t> RecomputeScheduleBatch(GreedyMetric metric, double eta,
                                           std::span<const Task> pending,
                                           BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  if (metric == GreedyMetric::kFcfs) {
    // The paper's framework runs every policy through the same greedy loop (Alg. 1): FCFS is
    // the arrival-order metric with the same skip-infeasible allocation as the others.
    return AllocateInOrder(pending, blocks, FcfsOrder(pending));
  }

  CapacitySnapshot snapshot(blocks);
  std::vector<double> scores(pending.size(), 0.0);
  switch (metric) {
    case GreedyMetric::kDpf:
      for (size_t i = 0; i < pending.size(); ++i) {
        scores[i] = DpfEfficiency(pending[i], snapshot);
      }
      break;
    case GreedyMetric::kArea:
      for (size_t i = 0; i < pending.size(); ++i) {
        scores[i] = AreaEfficiency(pending[i], snapshot);
      }
      break;
    case GreedyMetric::kDpack: {
      std::vector<size_t> best_alpha = ComputeBestAlphas(pending, snapshot, eta);
      for (size_t i = 0; i < pending.size(); ++i) {
        scores[i] = DpackEfficiency(pending[i], snapshot, best_alpha);
      }
      break;
    }
    case GreedyMetric::kFcfs:
      break;  // Handled above.
  }
  return AllocateInOrder(pending, blocks, OrderByScoreDesc(pending, scores));
}

bool HeapEntryBefore(const HeapEntry& a, const HeapEntry& b) {
  if (a.score != b.score) {
    return a.score > b.score;
  }
  if (a.arrival != b.arrival) {
    return a.arrival < b.arrival;
  }
  return a.id < b.id;
}

double ScoreGreedyTask(GreedyMetric metric, const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha) {
  switch (metric) {
    case GreedyMetric::kDpf:
      return DpfEfficiency(task, snapshot);
    case GreedyMetric::kArea:
      return AreaEfficiency(task, snapshot);
    case GreedyMetric::kDpack:
      return DpackEfficiency(task, snapshot, best_alpha);
    case GreedyMetric::kFcfs:
      break;  // FCFS never scores.
  }
  DPACK_CHECK_MSG(false, "unscored metric");
  return 0.0;
}

}  // namespace dpack
