#include "src/core/schedule_context.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
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

void SortHeapEntries(std::vector<HeapEntry>& entries, std::vector<HeapEntry>& scratch) {
  // Below this size std::sort beats the radix sort's fixed histogram cost. Measured on a
  // 4-core Xeon by replaying the candidates bench/e2e's workloads sort (src/README.md):
  // engine_churn sorts ~20 per cycle, where radix-only costs 3.0 us per sort against
  // std::sort's 1.0 us; engine_backlog sorts ~136, where this cutoff takes 6.8 us per sort
  // against std::sort's 9.4 us. Cutoffs from 32 to 128 measured alike.
  constexpr size_t kRadixMinSize = 64;
  const size_t n = entries.size();
  if (n < kRadixMinSize) {
    std::sort(entries.begin(), entries.end(), HeapEntryBefore);
    return;
  }
  // Ascending key == descending score: a negative score's pattern already grows as the score
  // falls and sorts after every non-negative one, whose pattern is flipped below the sign.
  auto key = [](const HeapEntry& entry) {
    uint64_t bits = std::bit_cast<uint64_t>(entry.score);
    return (bits >> 63) != 0 ? bits : ~bits ^ (1ULL << 63);
  };
  constexpr size_t kDigits = sizeof(uint64_t);
  std::array<std::array<size_t, 256>, kDigits> counts{};
  for (const HeapEntry& entry : entries) {
    uint64_t k = key(entry);
    for (size_t d = 0; d < kDigits; ++d) {
      ++counts[d][(k >> (8 * d)) & 0xFF];
    }
  }
  scratch.resize(n);
  for (size_t d = 0; d < kDigits; ++d) {
    std::array<size_t, 256>& count = counts[d];
    uint64_t first_digit = (key(entries[0]) >> (8 * d)) & 0xFF;
    if (count[first_digit] == n) {
      continue;  // Every key shares this digit: the pass would not move anything.
    }
    size_t offset = 0;
    for (size_t& c : count) {
      size_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (const HeapEntry& entry : entries) {
      scratch[count[(key(entry) >> (8 * d)) & 0xFF]++] = entry;
    }
    entries.swap(scratch);
  }
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && entries[end].score == entries[begin].score) {
      ++end;
    }
    if (end - begin > 1) {
      std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin),
                entries.begin() + static_cast<std::ptrdiff_t>(end), HeapEntryBefore);
    }
    begin = end;
  }
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
