#include "src/sim/sim_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/core/fairness.h"

namespace dpack {

namespace {

AlphaGridPtr GridOrDefault(const SimConfig& config) {
  return config.grid != nullptr ? config.grid : AlphaGrid::Default();
}

}  // namespace

std::vector<double> BlockArrivalSchedule(const SimConfig& config) {
  if (!config.block_arrival_times.empty()) {
    for (size_t b = 0; b < config.block_arrival_times.size(); ++b) {
      double t = config.block_arrival_times[b];
      DPACK_CHECK_MSG(std::isfinite(t) && t >= 0.0,
                      "block_arrival_times must be finite and non-negative, got " << t);
      DPACK_CHECK_MSG(b == 0 || config.block_arrival_times[b - 1] <= t,
                      "block_arrival_times must be sorted ascending");
    }
    return config.block_arrival_times;
  }
  DPACK_CHECK(config.num_blocks > 0);
  DPACK_CHECK(config.block_interval > 0.0 && std::isfinite(config.block_interval));
  std::vector<double> schedule;
  schedule.reserve(config.num_blocks);
  for (size_t b = 0; b < config.num_blocks; ++b) {
    schedule.push_back(static_cast<double>(b) * config.block_interval);
  }
  return schedule;
}

double LastArrival(const std::vector<Task>& tasks) {
  double last_arrival = 0.0;
  for (const Task& task : tasks) {
    DPACK_CHECK_MSG(std::isfinite(task.arrival_time) && task.arrival_time >= 0.0,
                    "task " << task.id << " has arrival_time " << task.arrival_time
                            << "; arrivals must be finite and non-negative");
    last_arrival = std::max(last_arrival, task.arrival_time);
  }
  return last_arrival;
}

double SimulationHorizon(const SimConfig& config, const std::vector<Task>& tasks,
                         const std::vector<double>& block_schedule) {
  double horizon = std::max(LastArrival(tasks), block_schedule.back()) +
                   config.period * static_cast<double>(config.unlock_steps) +
                   config.period * config.drain_margin;
  if (config.horizon_override > 0.0) {
    horizon = config.horizon_override;
  }
  return horizon;
}

std::vector<double> CycleInstantsFrom(double first, double period, double horizon,
                                      double* next_after_horizon) {
  DPACK_CHECK_MSG(period > 0.0, "the cycle period must be positive, got " << period);
  DPACK_CHECK_MSG(std::isfinite(horizon), "the cycle horizon must be finite, got " << horizon);
  std::vector<double> instants;
  double t = first;
  while (t <= horizon) {
    instants.push_back(t);
    double next = t + period;
    DPACK_CHECK_MSG(next > t, "the cycle period " << period << " does not advance past " << t);
    t = next;
  }
  *next_after_horizon = t;
  return instants;
}

std::vector<double> CycleInstants(const SimConfig& config, double horizon,
                                  double* next_after_horizon) {
  return CycleInstantsFrom(0.0, config.period, horizon, next_after_horizon);
}

bool WalkSchedule(std::span<const double> block_instants, std::span<Task> tasks,
                  std::span<const double> cycle_instants,
                  const std::function<bool(double)>& on_block,
                  const std::function<bool(double, std::span<Task>)>& on_tasks,
                  const std::function<bool(double)>& on_cycle) {
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) { return a.arrival_time < b.arrival_time; });
  constexpr double kNever = std::numeric_limits<double>::infinity();
  size_t b = 0, k = 0, c = 0;
  while (b < block_instants.size() || k < tasks.size() || c < cycle_instants.size()) {
    double block_at = b < block_instants.size() ? block_instants[b] : kNever;
    double task_at = k < tasks.size() ? tasks[k].arrival_time : kNever;
    double cycle_at = c < cycle_instants.size() ? cycle_instants[c] : kNever;
    // The earliest event goes next; at equal instants blocks, then tasks, then the cycle.
    if (b < block_instants.size() && block_at <= std::min(task_at, cycle_at)) {
      if (!on_block(block_at)) {
        return false;
      }
      ++b;
    } else if (k < tasks.size() && task_at <= cycle_at) {
      size_t end = k + 1;
      while (end < tasks.size() && tasks[end].arrival_time == task_at) {
        ++end;
      }
      if (!on_tasks(task_at, tasks.subspan(k, end - k))) {
        return false;
      }
      k = end;
    } else {
      if (!on_cycle(cycle_at)) {
        return false;
      }
      ++c;
    }
  }
  return true;
}

namespace {

OnlineSchedulerConfig OnlineConfigFor(const SimConfig& config) {
  OnlineSchedulerConfig online_config;
  online_config.period = config.period;
  online_config.unlock_steps = config.unlock_steps;
  online_config.fair_share_n = config.fair_share_n;
  online_config.admission_queue_capacity = config.admission_queue_capacity;
  return online_config;
}

// RunOnlineSimulation (no snapshot) and ResumeOnlineSimulation in one body.
SimResult RunOnline(std::unique_ptr<Scheduler> scheduler, const ClusterSnapshot* snapshot,
                    std::vector<Task> tasks, const SimConfig& config) {
  DPACK_CHECK(scheduler != nullptr);
  std::vector<double> block_schedule = BlockArrivalSchedule(config);
  double horizon = SimulationHorizon(config, tasks, block_schedule);
  AlphaGridPtr grid = GridOrDefault(config);
  if (snapshot != nullptr) {
    DPACK_CHECK_MSG(config.stop_after_cycles == 0,
                    "chained checkpoints are not supported; resume runs to completion");
    std::string validation = ValidateSnapshot(*snapshot);
    DPACK_CHECK_MSG(validation.empty(), "resume from an invalid snapshot: " << validation);
    // The snapshot is only meaningful under the exact configuration it was captured with.
    // dpack-lint: allow(float-equality): config identity, bit for bit; not a budget test.
    bool same_config = snapshot->eps_g == config.eps_g && snapshot->delta_g == config.delta_g &&
                       snapshot->meta.period == config.period &&
                       snapshot->meta.unlock_steps == config.unlock_steps;
    DPACK_CHECK_MSG(same_config, "resume config does not match the snapshot's");
    size_t blocks_before =
        std::upper_bound(block_schedule.begin(), block_schedule.end(),
                         snapshot->meta.checkpoint_time) - block_schedule.begin();
    DPACK_CHECK_MSG(blocks_before == snapshot->blocks.size(),
                    "snapshot block count does not match the config's arrival process");
  }
  BlockManager blocks = snapshot != nullptr
                            ? RestoreBlockManager(*snapshot, grid)
                            : BlockManager(grid, config.eps_g, config.delta_g);
  OnlineScheduler online(std::move(scheduler), &blocks, OnlineConfigFor(config));
  if (snapshot != nullptr) {
    online.RestoreState(RestorePendingTasks(*snapshot, grid),
                        RestoreMetrics(snapshot->metrics));
  }

  // Arrivals fire in the window (after, through]. A resume replays only what came after its
  // checkpoint: arrivals at or before it are in the snapshot (they fire before the cycle the
  // capture followed, and the mid-drain capture point includes its instant's arrivals). Its
  // cycles continue the uninterrupted run's exact instant sequence from next_cycle_time.
  double after = snapshot != nullptr ? snapshot->meta.checkpoint_time
                                     : -std::numeric_limits<double>::infinity();
  double through = std::numeric_limits<double>::infinity();
  double next_cycle_time = 0.0;
  std::vector<double> cycle_instants = CycleInstantsFrom(
      snapshot != nullptr ? snapshot->meta.next_cycle_time : 0.0, config.period, horizon,
      &next_cycle_time);
  // A crash point k splits the schedule: run cycles [0, k), absorb arrivals up to the
  // capture instant, snapshot, stop. Arrivals at the capture instant itself are included
  // only for the mid-drain kill (they sit in the queue with their cycle unrun). A k at or
  // past the final cycle clamps to it — the snapshot then captures the fully-run state and
  // a resume simply submits any post-horizon stragglers without scheduling them, exactly
  // as the uninterrupted run would have.
  bool capturing = config.stop_after_cycles > 0;
  if (capturing) {
    DPACK_CHECK_MSG(!cycle_instants.empty(), "a capture needs a cycle to stop after");
    size_t cycle_limit = std::min(config.stop_after_cycles, cycle_instants.size());
    if (cycle_limit < cycle_instants.size()) {
      next_cycle_time = cycle_instants[cycle_limit];
    }
    through = config.stop_mid_drain ? next_cycle_time : cycle_instants[cycle_limit - 1];
    cycle_instants.resize(cycle_limit);
  }
  auto first_block = std::upper_bound(block_schedule.begin(), block_schedule.end(), after);
  auto end_block = std::upper_bound(first_block, block_schedule.end(), through);
  std::erase_if(tasks, [&](const Task& task) {
    return task.arrival_time <= after || task.arrival_time > through;
  });

  SimResult result;
  result.cycles_run = snapshot != nullptr ? snapshot->meta.cycles_completed : 0;
  double end_time = 0.0;
  WalkSchedule(
      {first_block, end_block}, tasks, cycle_instants,
      [&](double t) {
        blocks.AddBlock(t);
        end_time = t;
        return true;
      },
      [&](double t, std::span<Task> run) {
        for (Task& task : run) {
          online.Submit(std::move(task));
        }
        end_time = t;
        return true;
      },
      [&](double t) {
        online.RunCycle(t);
        ++result.cycles_run;
        if (config.record_grant_trace) {
          result.grant_trace.push_back(online.last_granted());
        }
        end_time = t;
        return true;
      });

  if (capturing) {
    SnapshotMeta meta;
    meta.cycles_completed = result.cycles_run;
    meta.checkpoint_time = through;
    meta.next_cycle_time = next_cycle_time;
    meta.period = config.period;
    meta.unlock_steps = config.unlock_steps;
    meta.fair_share_n = online.config().fair_share_n;
    result.snapshot = CaptureSnapshot(blocks, online.pending(), online.metrics(), meta);
  }
  result.metrics = online.metrics();
  if (const ScheduleContextStats* stats = online.context_stats()) {
    result.scheduler_stats = *stats;
  }
  result.blocks_created = blocks.block_count();
  result.end_time = std::max(end_time, after);  // A resume ends no earlier than its checkpoint.
  result.pending_at_end = online.pending_count();
  result.admission_rejected = online.admission_rejected();
  return result;
}

}  // namespace

SimResult RunOnlineSimulation(std::unique_ptr<Scheduler> scheduler, std::vector<Task> tasks,
                              const SimConfig& config) {
  return RunOnline(std::move(scheduler), nullptr, std::move(tasks), config);
}

SimResult ResumeOnlineSimulation(std::unique_ptr<Scheduler> scheduler,
                                 const ClusterSnapshot& snapshot, std::vector<Task> tasks,
                                 const SimConfig& config) {
  return RunOnline(std::move(scheduler), &snapshot, std::move(tasks), config);
}

SimResult RunOfflineSchedule(Scheduler& scheduler, std::vector<Task> tasks,
                             const SimConfig& config) {
  size_t num_blocks = config.block_arrival_times.empty() ? config.num_blocks
                                                         : config.block_arrival_times.size();
  DPACK_CHECK(num_blocks > 0);
  BlockManager blocks(GridOrDefault(config), config.eps_g, config.delta_g);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  int64_t fair_n = config.fair_share_n > 0 ? config.fair_share_n : config.unlock_steps;

  SimResult result;
  for (Task& task : tasks) {
    if (task.blocks.empty() && task.num_recent_blocks > 0) {
      task.blocks = blocks.MostRecentBlocks(task.num_recent_blocks);
    }
    result.metrics.RecordSubmission(task.weight, IsFairShareTask(task, blocks, fair_n));
  }
  // dpack-lint: allow(nondeterministic-source): metrics-only cycle timing, never feeds grants.
  auto start = std::chrono::steady_clock::now();
  std::vector<size_t> granted = scheduler.ScheduleBatch(tasks, blocks);
  // dpack-lint: allow(nondeterministic-source): metrics-only cycle timing, never feeds grants.
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.metrics.RecordCycleRuntime(seconds);
  for (size_t idx : granted) {
    result.metrics.RecordAllocation(tasks[idx].weight, 0.0,
                                    IsFairShareTask(tasks[idx], blocks, fair_n));
  }
  result.blocks_created = blocks.block_count();
  result.end_time = 0.0;
  result.cycles_run = 1;
  result.pending_at_end = tasks.size() - granted.size();
  return result;
}

}  // namespace dpack
