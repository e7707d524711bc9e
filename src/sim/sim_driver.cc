#include "src/sim/sim_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/core/fairness.h"
#include "src/sim/simulation.h"

namespace dpack {

namespace {

AlphaGridPtr GridOrDefault(const SimConfig& config) {
  return config.grid != nullptr ? config.grid : AlphaGrid::Default();
}

}  // namespace

std::vector<double> BlockArrivalSchedule(const SimConfig& config) {
  if (!config.block_arrival_times.empty()) {
    for (size_t b = 0; b < config.block_arrival_times.size(); ++b) {
      DPACK_CHECK_MSG(config.block_arrival_times[b] >= 0.0,
                      "block_arrival_times must be non-negative");
      DPACK_CHECK_MSG(b == 0 ||
                          config.block_arrival_times[b - 1] <= config.block_arrival_times[b],
                      "block_arrival_times must be sorted ascending");
    }
    return config.block_arrival_times;
  }
  DPACK_CHECK(config.num_blocks > 0);
  DPACK_CHECK(config.block_interval > 0.0);
  std::vector<double> schedule;
  schedule.reserve(config.num_blocks);
  for (size_t b = 0; b < config.num_blocks; ++b) {
    schedule.push_back(static_cast<double>(b) * config.block_interval);
  }
  return schedule;
}

double SimulationHorizon(const SimConfig& config, const std::vector<Task>& tasks,
                         const std::vector<double>& block_schedule) {
  double last_arrival = 0.0;
  for (const Task& task : tasks) {
    last_arrival = std::max(last_arrival, task.arrival_time);
  }
  double last_block_arrival = block_schedule.back();
  double horizon = std::max(last_arrival, last_block_arrival) +
                   config.period * static_cast<double>(config.unlock_steps) +
                   config.period * config.drain_margin;
  if (config.horizon_override > 0.0) {
    horizon = config.horizon_override;
  }
  return horizon;
}

std::vector<double> CycleInstants(const SimConfig& config, double horizon,
                                  double* next_after_horizon) {
  std::vector<double> instants;
  double t = 0.0;
  while (t <= horizon) {
    instants.push_back(t);
    t += config.period;
  }
  *next_after_horizon = t;
  return instants;
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

}  // namespace

SimResult RunOnlineSimulation(std::unique_ptr<Scheduler> scheduler, std::vector<Task> tasks,
                              const SimConfig& config) {
  DPACK_CHECK(scheduler != nullptr);
  std::vector<double> block_schedule = BlockArrivalSchedule(config);

  BlockManager blocks(GridOrDefault(config), config.eps_g, config.delta_g);
  OnlineScheduler online(std::move(scheduler), &blocks, OnlineConfigFor(config));

  double horizon = SimulationHorizon(config, tasks, block_schedule);
  double next_after_horizon = 0.0;
  std::vector<double> cycle_instants = CycleInstants(config, horizon, &next_after_horizon);

  // A crash point k splits the schedule: run cycles [0, k), absorb arrivals up to the
  // capture instant, snapshot, stop. Arrivals at the capture instant itself are included
  // only for the mid-drain kill (they sit in the queue with their cycle unrun). A k at or
  // past the final cycle clamps to it — the snapshot then captures the fully-run state and
  // a resume simply submits any post-horizon stragglers without scheduling them, exactly
  // as the uninterrupted run would have.
  bool capturing = config.stop_after_cycles > 0;
  size_t cycle_limit =
      capturing ? std::min(config.stop_after_cycles, cycle_instants.size())
                : cycle_instants.size();
  double next_cycle_time =
      cycle_limit < cycle_instants.size() ? cycle_instants[cycle_limit] : next_after_horizon;
  double arrival_cutoff = std::numeric_limits<double>::infinity();  // Everything.
  if (capturing) {
    arrival_cutoff =
        config.stop_mid_drain ? next_cycle_time : cycle_instants[cycle_limit - 1];
  }
  double checkpoint_time = capturing ? arrival_cutoff : 0.0;

  SimResult result;
  Simulation sim;
  // Block arrivals.
  for (double t : block_schedule) {
    if (t > arrival_cutoff) {
      continue;
    }
    sim.At(t, EventPriority::kBlockArrival, [&blocks, &sim] { blocks.AddBlock(sim.now()); });
  }
  // Task arrivals.
  for (Task& task : tasks) {
    double t = task.arrival_time;
    if (t > arrival_cutoff) {
      continue;
    }
    Task* task_ptr = &task;
    sim.At(t, EventPriority::kTaskArrival,
           [&online, task_ptr] { online.Submit(std::move(*task_ptr)); });
  }
  // Scheduling cycles.
  size_t cycles = 0;
  for (size_t c = 0; c < cycle_limit; ++c) {
    sim.At(cycle_instants[c], EventPriority::kScheduling, [&online, &sim, &cycles, &result,
                                                          &config] {
      online.RunCycle(sim.now());
      ++cycles;
      if (config.record_grant_trace) {
        result.grant_trace.push_back(online.last_granted());
      }
    });
  }
  double end_time = sim.Run();

  if (capturing) {
    SnapshotMeta meta;
    meta.cycles_completed = cycles;
    meta.checkpoint_time = checkpoint_time;
    meta.next_cycle_time = next_cycle_time;
    meta.period = config.period;
    meta.unlock_steps = config.unlock_steps;
    meta.fair_share_n = online.config().fair_share_n;
    const ScheduleContextStats* stats = online.context_stats();
    meta.num_shards = stats != nullptr ? stats->shards : 1;
    result.snapshot = CaptureSnapshot(blocks, online.pending(), online.metrics(), meta);
  }

  result.metrics = online.metrics();
  if (const ScheduleContextStats* stats = online.context_stats()) {
    result.scheduler_stats = *stats;
  }
  result.blocks_created = blocks.block_count();
  result.retired_at_end = blocks.retired_count();
  result.end_time = end_time;
  result.cycles_run = cycles;
  result.pending_at_end = online.pending_count();
  result.admission_rejected = online.admission_rejected();
  return result;
}

SimResult ResumeOnlineSimulation(std::unique_ptr<Scheduler> scheduler,
                                 const ClusterSnapshot& snapshot, std::vector<Task> tasks,
                                 const SimConfig& config) {
  DPACK_CHECK(scheduler != nullptr);
  std::vector<double> block_schedule = BlockArrivalSchedule(config);
  DPACK_CHECK_MSG(config.stop_after_cycles == 0,
                  "chained checkpoints are not supported; resume runs to completion");
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "resume from an invalid snapshot: " << validation);
  // The snapshot is only meaningful under the configuration it was captured with.
  DPACK_CHECK_MSG(snapshot.meta.period == config.period &&
                      snapshot.meta.unlock_steps == config.unlock_steps &&
                      snapshot.eps_g == config.eps_g && snapshot.delta_g == config.delta_g,
                  "resume config does not match the snapshot's");
  double checkpoint_time = snapshot.meta.checkpoint_time;
  size_t blocks_before = 0;
  for (double t : block_schedule) {
    if (t <= checkpoint_time) {
      ++blocks_before;
    }
  }
  DPACK_CHECK_MSG(blocks_before == snapshot.blocks.size(),
                  "snapshot block count does not match the config's arrival process");

  AlphaGridPtr grid = GridOrDefault(config);
  BlockManager blocks = RestoreBlockManager(snapshot, grid);
  OnlineScheduler online(std::move(scheduler), &blocks, OnlineConfigFor(config));
  online.RestoreState(RestorePendingTasks(snapshot, grid),
                      RestoreMetrics(snapshot.metrics));

  double horizon = SimulationHorizon(config, tasks, block_schedule);

  SimResult result;
  Simulation sim;
  // Arrivals strictly after the checkpoint: everything at or before it is already in the
  // snapshot (block arrivals and submissions fire before the scheduling cycle the capture
  // followed, and the mid-drain capture point is defined to include its instant's arrivals).
  for (double t : block_schedule) {
    if (t <= checkpoint_time) {
      continue;
    }
    sim.At(t, EventPriority::kBlockArrival, [&blocks, &sim] { blocks.AddBlock(sim.now()); });
  }
  for (Task& task : tasks) {
    double t = task.arrival_time;
    if (t <= checkpoint_time) {
      continue;
    }
    Task* task_ptr = &task;
    sim.At(t, EventPriority::kTaskArrival,
           [&online, task_ptr] { online.Submit(std::move(*task_ptr)); });
  }
  // Remaining cycles, continuing the uninterrupted run's exact instant sequence.
  size_t cycles = 0;
  for (double t = snapshot.meta.next_cycle_time; t <= horizon; t += config.period) {
    sim.At(t, EventPriority::kScheduling, [&online, &sim, &cycles, &result, &config] {
      online.RunCycle(sim.now());
      ++cycles;
      if (config.record_grant_trace) {
        result.grant_trace.push_back(online.last_granted());
      }
    });
  }
  double end_time = sim.Run();

  result.metrics = online.metrics();
  if (const ScheduleContextStats* stats = online.context_stats()) {
    result.scheduler_stats = *stats;
  }
  result.blocks_created = blocks.block_count();
  result.retired_at_end = blocks.retired_count();
  result.end_time = std::max(end_time, checkpoint_time);
  result.cycles_run = static_cast<size_t>(snapshot.meta.cycles_completed) + cycles;
  result.pending_at_end = online.pending_count();
  result.admission_rejected = online.admission_rejected();
  return result;
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
  auto start = std::chrono::steady_clock::now();
  std::vector<size_t> granted = scheduler.ScheduleBatch(tasks, blocks);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
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
