#include "src/orchestrator/cluster_orchestrator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/thread_annotations.h"

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
  auto run_start = std::chrono::steady_clock::now();
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
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
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
  DPACK_CHECK_MSG(snapshot.blocks.size() >= config_.offline_blocks &&
                      snapshot.blocks.size() <=
                          config_.offline_blocks + config_.online_blocks,
                  "snapshot block count outside this orchestrator's arrival process");
  return RunOnlineInternal(&snapshot, std::move(tasks));
}

OrchestratorRunResult ClusterOrchestrator::RunOnlineInternal(const ClusterSnapshot* snapshot,
                                                             std::vector<Task> tasks) {
  DPACK_CHECK_MSG(scheduler_ != nullptr, "orchestrator scheduler missing (mid-run reentry?)");
  auto run_start = std::chrono::steady_clock::now();
  SimulatedStateStore store(config_.store_latency_us);
  double start_virtual = snapshot != nullptr ? snapshot->meta.checkpoint_time : 0.0;
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

  double last_arrival = 0.0;
  for (const Task& task : tasks) {
    last_arrival = std::max(last_arrival, task.arrival_time);
  }
  if (snapshot != nullptr) {
    // Claims at or before the checkpoint are the store's responsibility (granted, queued
    // in the snapshot, or lost in flight); only later arrivals are replayed. The horizon
    // still derives from the full workload, matching the original run's.
    auto kept = std::remove_if(tasks.begin(), tasks.end(), [&](const Task& task) {
      return task.arrival_time <= start_virtual;
    });
    tasks.erase(kept, tasks.end());
  }
  double online_span = static_cast<double>(config_.online_blocks);
  double end_virtual = std::max(last_arrival, online_span) +
                       config_.period * static_cast<double>(config_.unlock_steps + 1);

  std::atomic<double> clock{start_virtual};
  std::atomic<bool> producer_done{false};
  std::atomic<bool> stop{false};

  // Submission queue shared between the producer and the scheduler thread. Block arrivals
  // are communicated as a pending counter so all BlockManager mutation happens on the
  // scheduler thread.
  Mutex mu;
  std::vector<Task> submission_queue;
  size_t blocks_added =  // Online blocks already materialized (restored from the snapshot).
      snapshot != nullptr ? snapshot->blocks.size() - config_.offline_blocks : 0;
  size_t blocks_released = blocks_added;  // Online blocks whose arrival time has passed.

  std::thread timekeeper([&] {
    auto unit = std::chrono::duration<double, std::milli>(config_.virtual_unit_wall_ms);
    while (!stop.load(std::memory_order_acquire)) {
      // dpack-lint: allow(raw-sleep): wall pacing of virtual time is this sleep.
      std::this_thread::sleep_for(unit);
      double now = clock.load(std::memory_order_relaxed) + 1.0;
      clock.store(now, std::memory_order_release);
      MutexLock lock(mu);
      blocks_released = std::max(blocks_released,
                                 std::min<size_t>(config_.online_blocks,
                                                  static_cast<size_t>(std::floor(now))));
    }
  });

  std::thread producer([&] {
    for (Task& task : tasks) {
      while (clock.load(std::memory_order_acquire) < task.arrival_time &&
             !stop.load(std::memory_order_acquire)) {
        // dpack-lint: allow(raw-sleep): the producer paces itself against virtual time.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      store.RoundTrip(1);  // Claim creation.
      MutexLock lock(mu);
      submission_queue.push_back(std::move(task));
    }
    producer_done.store(true, std::memory_order_release);
  });

  OrchestratorRunResult result;
  size_t cycles = snapshot != nullptr ? static_cast<size_t>(snapshot->meta.cycles_completed)
                                      : 0;
  double next_cycle = snapshot != nullptr ? snapshot->meta.next_cycle_time : 0.0;
  while (true) {
    double now = clock.load(std::memory_order_acquire);
    if (now < next_cycle) {
      // dpack-lint: allow(raw-sleep): waiting for the next wall-paced cycle instant.
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.virtual_unit_wall_ms / 4.0));
      continue;
    }
    // Materialize newly arrived blocks and drain the submission queue.
    std::vector<Task> batch;
    size_t release_target = 0;
    {
      MutexLock lock(mu);
      batch.swap(submission_queue);
      release_target = blocks_released;
    }
    while (blocks_added < release_target) {
      ++blocks_added;
      blocks.AddBlock(static_cast<double>(blocks_added));
    }
    for (Task& task : batch) {
      online.Submit(std::move(task));
    }

    store.RoundTrip(config_.store_ops_per_cycle);
    size_t granted = online.RunCycle(now);
    store.RoundTrip(config_.store_ops_per_task * granted);
    ++cycles;
    next_cycle += config_.period;

    if (config_.checkpoint_every_cycles > 0 &&
        cycles % config_.checkpoint_every_cycles == 0) {
      // The capture runs on the scheduler thread, which owns the manager and the queue.
      // The clock races ahead of the drain, so a freshly drained claim can carry an
      // arrival time past the `now` this cycle read — stamp the checkpoint at the latest
      // state it actually covers.
      double checkpoint_time = now;
      for (const Task& task : online.pending()) {
        checkpoint_time = std::max(checkpoint_time, task.arrival_time);
      }
      SnapshotMeta meta;
      meta.cycles_completed = cycles;
      meta.checkpoint_time = checkpoint_time;
      meta.next_cycle_time = std::max(next_cycle, checkpoint_time);
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
    }

    if (producer_done.load(std::memory_order_acquire) && now >= end_virtual) {
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  timekeeper.join();

  result.metrics = online.metrics();
  if (const ScheduleContextStats* stats = online.context_stats()) {
    result.scheduler_stats = stats->Delta(stats_at_entry);
  }
  result.store_operations = store.operations();
  result.store_bytes_written = store.bytes_written();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
  result.cycles = cycles;
  scheduler_ = online.ReleaseInner();
  return result;
}

}  // namespace dpack
