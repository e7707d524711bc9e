// Block-scale sweep (ISSUE 6): proves the scheduling hot path is O(changed), not O(blocks).
// The block population grows 10k -> 1M while the per-cycle change set stays fixed (a small
// window of pending tasks plus a few dozen dirtied blocks), so every steady-state work
// counter — blocks refreshed, tasks rescored/reused, best-alpha recomputes, merge
// allocations — must be *flat* across the sweep. Anything that scales with the population
// (a full version scan, a snapshot rebuild, a heap realloc) shows up as a counter that
// grows with N and fails both the built-in flatness check and the CI gate.
//
// --json <path> emits the counters for every (engine, scale) point in google-benchmark's
// {"benchmarks": [...]} shape, consumed by scripts/check_bench_regression.py against
// bench/baseline.json. The counters are exact functions of the fixed workload (no
// randomness, no timing), so they are stable across machines; wall time rides along for
// humans and is never gated. The dump itself fails (non-zero exit) if any gated counter is
// not identical across scales — O(changed) is enforced even before the baseline diff.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

// The population sweep: 100x from first to last point. Fixed regardless of --quick/--full
// so the JSON dump always covers every baseline entry (the gate reports a missing sweep
// point explicitly otherwise).
constexpr size_t kScales[] = {10'000, 100'000, 1'000'000};

// The fixed change set, independent of the population size. Tasks draw blocks from the
// most-recent kWindow ids (the paper's RangeSelector shape); each cycle dirties kDirty of
// them. Offsets are chosen so the window's alignment to the version tree's groups is
// identical at every scale (all kScales and kWindow are multiples of 64).
constexpr size_t kWindow = 512;
constexpr size_t kTasks = 256;
constexpr size_t kBlocksPerTask = 4;
constexpr size_t kDirty = 32;
constexpr size_t kMeasuredCycles = 8;

// A 4-order grid keeps a million-block manager (two curves per block) small enough to sweep
// in memory; the hot-path machinery under test is order-count agnostic.
AlphaGridPtr SweepGrid() {
  static const AlphaGridPtr grid = AlphaGrid::Create({2.0, 4.0, 8.0, 16.0});
  return grid;
}

RdpCurve CapacityFraction(double fraction) {
  return BlockCapacityCurve(SweepGrid(), kEpsG, kDeltaG).Scaled(fraction);
}

struct SweepPoint {
  size_t num_blocks = 0;
  ScheduleContextStats delta;  // Work over the measured cycles only (warm-up excluded).
  double wall_ms = 0.0;
};

// Oversized tasks (never granted) over the most-recent window: the pending queue is stable
// across cycles, so the only work left is what the dirty blocks induce.
std::vector<Task> WindowTasks(size_t num_blocks) {
  const int64_t window_start = static_cast<int64_t>(num_blocks - kWindow);
  std::vector<Task> pending;
  pending.reserve(kTasks);
  for (TaskId i = 0; i < static_cast<TaskId>(kTasks); ++i) {
    Task task(i, 1.0, CapacityFraction(2.0));
    for (size_t j = 0; j < kBlocksPerTask; ++j) {
      task.blocks.push_back(window_start +
                            static_cast<int64_t>((kBlocksPerTask * i + j) % kWindow));
    }
    pending.push_back(std::move(task));
  }
  return pending;
}

// Dirties kDirty window blocks with a demand far too small to ever exhaust one. The stride
// (7, coprime to kWindow) spreads the commits across the window so consecutive cycles touch
// different blocks.
void DirtyCycle(BlockManager& blocks, size_t num_blocks, size_t cycle,
                const RdpCurve& tiny) {
  const int64_t window_start = static_cast<int64_t>(num_blocks - kWindow);
  for (size_t j = 0; j < kDirty; ++j) {
    int64_t offset = static_cast<int64_t>(((cycle * kDirty + j) * 7) % kWindow);
    blocks.block(window_start + offset).Commit(tiny);
  }
}

SweepPoint RunPoint(size_t num_blocks) {
  BlockManager blocks(SweepGrid(), kEpsG, kDeltaG);
  for (size_t j = 0; j < num_blocks; ++j) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  std::vector<Task> pending = WindowTasks(num_blocks);
  const RdpCurve tiny = CapacityFraction(1e-5);

  GreedyScheduler scheduler(GreedyMetric::kDpack,
                            GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  // Two warm-up cycles: the first pays the one-time population sync, checks every task
  // and sizes the candidate buffers for the whole batch; the second is a dirty cycle like
  // the measured ones, which then perform zero merge allocations.
  scheduler.ScheduleBatch(pending, blocks);
  DirtyCycle(blocks, num_blocks, /*cycle=*/0, tiny);
  scheduler.ScheduleBatch(pending, blocks);

  const ScheduleContextStats before = scheduler.engine()->stats();
  auto start = std::chrono::steady_clock::now();
  for (size_t cycle = 1; cycle <= kMeasuredCycles; ++cycle) {
    DirtyCycle(blocks, num_blocks, cycle, tiny);
    scheduler.ScheduleBatch(pending, blocks);
  }
  auto stop = std::chrono::steady_clock::now();

  SweepPoint point;
  point.num_blocks = num_blocks;
  point.delta = scheduler.engine()->stats().Delta(before);
  point.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return point;
}

// The gated counters, as (name, per-cycle value) pairs. Exact functions of the fixed
// change set, so they must be identical at every scale.
std::vector<std::pair<std::string, double>> GatedCounters(const SweepPoint& point) {
  double cycles = static_cast<double>(kMeasuredCycles);
  const ScheduleContextStats& d = point.delta;
  return {{"blocks_refreshed_per_cycle", static_cast<double>(d.blocks_refreshed) / cycles},
          {"rescored_per_cycle", static_cast<double>(d.tasks_rescored) / cycles},
          {"reused_per_cycle", static_cast<double>(d.tasks_reused) / cycles},
          {"best_alpha_per_cycle", static_cast<double>(d.best_alpha_recomputes) / cycles},
          {"merge_allocs", static_cast<double>(d.merge_allocs)},
          {"full_recomputes", static_cast<double>(d.full_recomputes)}};
}

// O(changed) means counter values do not depend on the population size. Returns false (and
// says which counter broke) if any gated counter differs between sweep points.
bool CheckFlatAcrossScales(const std::vector<SweepPoint>& points) {
  if (points.empty()) {
    return true;
  }
  std::vector<std::pair<std::string, double>> reference = GatedCounters(points.front());
  for (const SweepPoint& point : points) {
    std::vector<std::pair<std::string, double>> counters = GatedCounters(point);
    for (size_t c = 0; c < reference.size(); ++c) {
      if (counters[c].second != reference[c].second) {
        std::fprintf(stderr,
                     "FLATNESS VIOLATION: %s is %g at %zu blocks but %g at %zu blocks "
                     "— the hot path scales with the population, not with the change set\n",
                     counters[c].first.c_str(), counters[c].second,
                     point.num_blocks, reference[c].second, points.front().num_blocks);
        return false;
      }
    }
  }
  return true;
}

bool RunSweep() {
  CsvTable table({"blocks", "refreshed_per_cycle", "rescored_per_cycle", "reused_per_cycle",
                  "best_alpha_per_cycle", "merge_allocs", "full_recomputes", "wall_ms"});
  std::vector<SweepPoint> points;
  for (size_t num_blocks : kScales) {
    points.push_back(RunPoint(num_blocks));
    const SweepPoint& point = points.back();
    CsvTable& row = table.NewRow().Add(point.num_blocks);
    for (const auto& [name, value] : GatedCounters(point)) {
      row.Add(FormatDouble(value));
    }
    row.Add(FormatDouble(point.wall_ms));
  }
  bool flat = CheckFlatAcrossScales(points);
  table.Print("Fig. 11: steady-state engine work vs block population (fixed change set)");
  std::printf("flatness: %s — gated counters %s across the 100x population sweep\n",
              flat ? "OK" : "VIOLATED", flat ? "identical" : "DIFFER");
  return flat;
}

bool DumpCountersJson(const std::string& path) {
  std::vector<BenchJsonEntry> entries;
  std::vector<SweepPoint> points;
  for (size_t num_blocks : kScales) {
    points.push_back(RunPoint(num_blocks));
    const SweepPoint& point = points.back();
    BenchJsonEntry entry;
    entry.name = "fig11_block_scale/dpack/incremental/blocks:" + std::to_string(num_blocks);
    entry.fields.push_back({"wall_ms", point.wall_ms});
    for (const auto& field : GatedCounters(point)) {
      entry.fields.push_back(field);
    }
    entries.push_back(std::move(entry));
  }
  bool flat = CheckFlatAcrossScales(points);
  return WriteBenchCountersJson(path, entries) && flat;
}

std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return "";
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Banner("Fig. 11: O(changed) block-scale sweep, 10k -> 1M blocks",
         "ISSUE 6, beyond the paper");
  std::string json_path = ParseJsonPath(argc, argv);
  if (!json_path.empty()) {
    return DumpCountersJson(json_path) ? 0 : 1;
  }
  return RunSweep() ? 0 : 1;
}
