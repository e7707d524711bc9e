#include "src/orchestrator/cluster_orchestrator.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/common/check.h"
#include "src/sim/simulation.h"

namespace dpack {

namespace {

AlphaGridPtr GridOrDefault(const OrchestratorConfig& config) {
  return config.grid != nullptr ? config.grid : AlphaGrid::Default();
}

}  // namespace

ClusterOrchestrator::ClusterOrchestrator(std::unique_ptr<Scheduler> scheduler,
                                         OrchestratorConfig config)
    : config_(std::move(config)), scheduler_(std::move(scheduler)) {
  DPACK_CHECK(scheduler_ != nullptr);
  DPACK_CHECK(config_.period > 0.0);
  DPACK_CHECK(config_.unlock_steps >= 1);
  DPACK_CHECK(config_.offline_blocks + config_.online_blocks > 0);
}

OrchestratorRunResult ClusterOrchestrator::RunOfflinePass(std::vector<Task> tasks) {
  DPACK_CHECK_MSG(scheduler_ != nullptr, "orchestrator scheduler missing (mid-run reentry?)");
  SimulatedStateStore store(config_.store_latency_us);
  BlockManager blocks(GridOrDefault(config_), config_.eps_g, config_.delta_g);
  size_t total_blocks = config_.offline_blocks + config_.online_blocks;
  for (size_t b = 0; b < total_blocks; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }

  OnlineSchedulerConfig online_config;
  online_config.period = config_.period;
  online_config.unlock_steps = 1;  // Offline: everything unlocked.
  OnlineScheduler online(std::move(scheduler_), &blocks, online_config);
  ScheduleContextStats stats_at_entry;
  if (const ScheduleContextStats* stats = online.context_stats()) {
    stats_at_entry = *stats;
  }

  // Client side: claim creation traffic (not charged to scheduler runtime).
  for (Task& task : tasks) {
    store.RoundTrip(1);
    online.Submit(std::move(task));
  }

  // One scheduling pass, timed with its state-store traffic.
  auto start = std::chrono::steady_clock::now();
  store.RoundTrip(config_.store_ops_per_cycle);
  size_t granted = online.RunCycle(0.0);
  store.RoundTrip(config_.store_ops_per_task * granted);
  double pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  OrchestratorRunResult result;
  result.metrics = online.metrics();
  result.metrics.RecordCycleRuntime(pass_seconds);  // Full pass incl. store traffic.
  if (const ScheduleContextStats* stats = online.context_stats()) {
    result.scheduler_stats = stats->Delta(stats_at_entry);
  }
  result.store_operations = store.operations();
  result.cycles = 1;
  // Take the scheduler back so a later Run* call does not dereference a moved-from
  // scheduler; its engine caches (bound to this run's manager) are invalidated.
  scheduler_ = online.ReleaseInner();
  return result;
}

OrchestratorRunResult ClusterOrchestrator::RunOnline(std::vector<Task> tasks) {
  return RunOnlineInternal(nullptr, std::move(tasks));
}

OrchestratorRunResult ClusterOrchestrator::ResumeFrom(const ClusterSnapshot& snapshot,
                                                      std::vector<Task> tasks) {
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "ResumeFrom on an invalid snapshot: " << validation);
  DPACK_CHECK_MSG(snapshot.meta.period == config_.period &&
                      snapshot.meta.unlock_steps == config_.unlock_steps &&
                      snapshot.eps_g == config_.eps_g && snapshot.delta_g == config_.delta_g,
                  "ResumeFrom config does not match the snapshot's");
  size_t blocks_before = config_.offline_blocks;
  for (size_t b = 1; b <= config_.online_blocks; ++b) {
    if (static_cast<double>(b) <= snapshot.meta.checkpoint_time) {
      ++blocks_before;
    }
  }
  DPACK_CHECK_MSG(blocks_before == snapshot.blocks.size(),
                  "snapshot block count does not match this orchestrator's arrival process");
  return RunOnlineInternal(&snapshot, std::move(tasks));
}

OrchestratorRunResult ClusterOrchestrator::RunOnlineInternal(const ClusterSnapshot* snapshot,
                                                             std::vector<Task> tasks) {
  DPACK_CHECK_MSG(scheduler_ != nullptr, "orchestrator scheduler missing (mid-run reentry?)");
  SimulatedStateStore store(config_.store_latency_us);
  AlphaGridPtr grid = GridOrDefault(config_);
  BlockManager blocks = snapshot != nullptr
                            ? RestoreBlockManager(*snapshot, grid)
                            : BlockManager(grid, config_.eps_g, config_.delta_g);
  if (snapshot == nullptr) {
    for (size_t b = 0; b < config_.offline_blocks; ++b) {
      blocks.AddBlock(0.0, /*unlocked=*/true);
    }
  }

  OnlineSchedulerConfig online_config;
  online_config.period = config_.period;
  online_config.unlock_steps = config_.unlock_steps;
  OnlineScheduler online(std::move(scheduler_), &blocks, online_config);
  if (snapshot != nullptr) {
    online.RestoreState(RestorePendingTasks(*snapshot, grid),
                        RestoreMetrics(snapshot->metrics));
  }
  ScheduleContextStats stats_at_entry;
  if (const ScheduleContextStats* stats = online.context_stats()) {
    stats_at_entry = *stats;
  }

  // The horizon derives from the full workload, so a resumed run ends where the original
  // would have.
  double last_arrival = 0.0;
  for (const Task& task : tasks) {
    last_arrival = std::max(last_arrival, task.arrival_time);
  }
  double online_span = static_cast<double>(config_.online_blocks);
  double end_virtual = std::max(last_arrival, online_span) +
                       config_.period * static_cast<double>(config_.unlock_steps + 1);

  // Arrivals at or before the checkpoint are in the snapshot (blocks and claims fire before
  // the cycle at the same instant); only later ones are replayed.
  double absorbed_until = snapshot != nullptr ? snapshot->meta.checkpoint_time
                                              : -std::numeric_limits<double>::infinity();

  Simulation sim;
  for (size_t b = 1; b <= config_.online_blocks; ++b) {
    double t = static_cast<double>(b);
    if (t > absorbed_until) {
      sim.At(t, EventPriority::kBlockArrival, [&blocks, t] { blocks.AddBlock(t); });
    }
  }
  for (Task& task : tasks) {
    if (task.arrival_time <= absorbed_until) {
      continue;
    }
    Task* task_ptr = &task;
    sim.At(task.arrival_time, EventPriority::kTaskArrival, [&store, &online, task_ptr] {
      store.RoundTrip(1);  // Claim creation.
      online.Submit(std::move(*task_ptr));
    });
  }

  OrchestratorRunResult result;
  size_t cycles = snapshot != nullptr ? static_cast<size_t>(snapshot->meta.cycles_completed)
                                      : 0;
  // Cycle instants come from one repeated addition, so a resumed run continues the
  // uninterrupted run's exact sequence from the checkpoint's next_cycle_time.
  double first_cycle = snapshot != nullptr ? snapshot->meta.next_cycle_time : 0.0;
  for (double t = first_cycle; t <= end_virtual; t += config_.period) {
    sim.At(t, EventPriority::kScheduling, [&, t] {
      store.RoundTrip(config_.store_ops_per_cycle);
      size_t granted = online.RunCycle(t);
      store.RoundTrip(config_.store_ops_per_task * granted);
      ++cycles;
      if (config_.checkpoint_every_cycles == 0 ||
          cycles % config_.checkpoint_every_cycles != 0) {
        return;
      }
      SnapshotMeta meta;
      meta.cycles_completed = cycles;
      meta.checkpoint_time = t;
      meta.next_cycle_time = t + config_.period;
      meta.period = config_.period;
      meta.unlock_steps = config_.unlock_steps;
      meta.fair_share_n = online.config().fair_share_n;
      const ScheduleContextStats* stats = online.context_stats();
      meta.num_shards = stats != nullptr ? stats->shards : 1;
      std::string encoded = EncodeSnapshotBinary(
          CaptureSnapshot(blocks, online.pending(), online.metrics(), meta));
      result.last_checkpoint = encoded;
      store.Put(kCheckpointKey, std::move(encoded));
      ++result.checkpoints_taken;
    });
  }
  sim.Run();

  result.metrics = online.metrics();
  if (const ScheduleContextStats* stats = online.context_stats()) {
    result.scheduler_stats = stats->Delta(stats_at_entry);
  }
  result.store_operations = store.operations();
  result.store_bytes_written = store.bytes_written();
  result.cycles = cycles;
  scheduler_ = online.ReleaseInner();
  return result;
}

}  // namespace dpack
