#include "src/service/worker.h"

#include <algorithm>
#include <utility>

#include "src/block/block_manager.h"
#include "src/common/check.h"
#include "src/core/metrics.h"
#include "src/core/schedule_context.h"
#include "src/orchestrator/checkpoint.h"

namespace dpack {

namespace {

// slot_stamp_ of a free slot: never equal to a round stamp.
constexpr uint64_t kFreeSlot = ~uint64_t{0};

// Task-home shard, normalized so negative ids land in [0, num_shards) too.
uint32_t HomeShard(TaskId id, uint32_t num_shards) {
  int64_t m = id % static_cast<int64_t>(num_shards);
  if (m < 0) {
    m += static_cast<int64_t>(num_shards);
  }
  return static_cast<uint32_t>(m);
}

}  // namespace

void WorkerReplica::ApplyBind(const BindMsg& msg) {
  DPACK_CHECK(msg.num_shards >= 1);
  DPACK_CHECK(!msg.alpha_orders.empty());
  num_shards_ = msg.num_shards;
  metric_ = msg.metric;
  eta_ = msg.eta;
  grid_ = AlphaGrid::Create(msg.alpha_orders);
  snapshot_.emplace(grid_);
  ClearTasks();
  best_alpha_.clear();
  needed_stamp_.clear();
  requesters_.clear();
  round_stamp_ = 0;
  bound_ = true;
}

void WorkerReplica::ApplyBlockUpsert(const BlockUpsertMsg& msg) {
  DPACK_CHECK(bound_);
  for (const BlockUpsertMsg::Entry& e : msg.entries) {
    DPACK_CHECK_MSG(e.id >= 0 &&
                        static_cast<size_t>(e.id) == snapshot_->block_count(),
                    "block upsert out of order: id " << e.id << " with "
                                                     << snapshot_->block_count()
                                                     << " blocks known");
    snapshot_->Append(RdpCurve(grid_, e.available), RdpCurve(grid_, e.total));
  }
}

void WorkerReplica::ApplyBlockRefresh(const BlockRefreshMsg& msg) {
  DPACK_CHECK(bound_);
  for (const BlockRefreshMsg::Entry& e : msg.entries) {
    DPACK_CHECK_MSG(e.id >= 0 && static_cast<size_t>(e.id) < snapshot_->block_count(),
                    "block refresh for unknown id " << e.id);
    snapshot_->RefreshAvailable(static_cast<BlockId>(e.id), RdpCurve(grid_, e.available));
  }
}

void WorkerReplica::Upsert(Task task) {
  auto [it, inserted] = slot_of_.try_emplace(task.id, 0);
  if (!inserted) {
    slots_[it->second] = std::move(task);  // Late block resolution re-sends the payload.
    return;
  }
  if (free_slots_.empty()) {
    it->second = slots_.size();
    slots_.push_back(std::move(task));
    slot_stamp_.push_back(0);
    return;
  }
  it->second = free_slots_.back();
  free_slots_.pop_back();
  slots_[it->second] = std::move(task);
  slot_stamp_[it->second] = 0;
}

void WorkerReplica::ClearTasks() {
  slots_.clear();
  slot_stamp_.clear();
  slot_of_.clear();
  free_slots_.clear();
}

void WorkerReplica::ApplyTaskUpsert(const TaskUpsertMsg& msg) {
  DPACK_CHECK(bound_);
  for (const TaskUpsertMsg::Entry& e : msg.entries) {
    Task task(static_cast<TaskId>(e.id), e.weight, RdpCurve(grid_, e.demand));
    task.arrival_time = e.arrival_time;
    task.blocks.reserve(e.blocks.size());
    for (int64_t b : e.blocks) {
      task.blocks.push_back(static_cast<BlockId>(b));
    }
    Upsert(std::move(task));
  }
}

bool WorkerReplica::ApplyState(const StateMsg& msg, std::string* error) {
  DPACK_CHECK(bound_);
  SnapshotParseResult parsed = DecodeSnapshotBinary(msg.snapshot);
  if (!parsed.ok) {
    *error = parsed.error;
    return false;
  }
  if (!SameGrid(AlphaGrid::Create(parsed.snapshot.grid_orders), grid_)) {
    *error = "state snapshot grid does not match the bound grid";
    return false;
  }
  // The recovery subsystem's restore rebuilds a byte-identical BlockManager; snapshotting
  // that manager with the engines' own CapacitySnapshot ctor reproduces the exact curve
  // bits the daemon's live manager would yield — cold start and recovery share one format.
  BlockManager restored = RestoreBlockManager(parsed.snapshot, grid_);
  snapshot_.emplace(restored);
  ClearTasks();
  for (Task& task : RestorePendingTasks(parsed.snapshot, grid_)) {
    Upsert(std::move(task));
  }
  return true;
}

ScoreReplyMsg WorkerReplica::ScoreRound(const ScoreRequestMsg& msg) {
  DPACK_CHECK(bound_);
  ScoreReplyMsg reply;
  reply.round = msg.round;

  // Resolve the batch to slots, in batch order, stamping each listed slot with the round.
  ++round_stamp_;
  round_slots_.clear();
  for (int64_t id : msg.batch_ids) {
    auto it = slot_of_.find(static_cast<TaskId>(id));
    DPACK_CHECK_MSG(it != slot_of_.end(), "score request references unknown task " << id);
    round_slots_.push_back(it->second);
    slot_stamp_[it->second] = round_stamp_;
  }

  // Free the slots absent from the batch: a granted or evicted task never reappears, and
  // the purge keeps replica memory proportional to the live queue. One pass over the slot
  // stamps, in slot order — no sort, no hash order.
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slot_stamp_[slot] != round_stamp_ && slot_stamp_[slot] != kFreeSlot) {
      slot_of_.erase(slots_[slot].id);
      slot_stamp_[slot] = kFreeSlot;
      free_slots_.push_back(slot);
    }
  }

  // The shard set this round assigns to this worker (explicit in the request, so shard
  // reassignment after a crash re-requests the same pure computation from a survivor).
  std::vector<bool> home_shard(num_shards_, false);
  for (uint32_t s : msg.shards) {
    DPACK_CHECK_MSG(s < num_shards_, "score request shard " << s << " out of range");
    home_shard[s] = true;
  }
  auto is_home = [&](const Task& task) { return home_shard[HomeShard(task.id, num_shards_)]; };

  if (metric_ == GreedyMetric::kFcfs) {
    // FCFS never scores; uniform zero scores make the daemon's merge order (score desc,
    // arrival asc, id asc) collapse to exactly FcfsOrder (arrival asc, id asc).
    for (size_t slot : round_slots_) {
      const Task& task = slots_[slot];
      if (is_home(task)) {
        reply.entries.push_back({0.0, task.arrival_time, task.id});
      }
    }
    return reply;
  }

  std::span<const size_t> best_alpha_span;
  if (metric_ == GreedyMetric::kDpack) {
    // Solve best alphas only for blocks some home task requests — but with requester lists
    // drawn from the FULL batch in batch order, exactly the inputs ComputeBestAlphas feeds
    // BestAlphaForBlock (as slots instead of batch indices, in the same order), so the
    // per-block solutions are bit-identical to the reference.
    size_t block_count = snapshot_->block_count();
    best_alpha_.assign(block_count, 0);
    needed_stamp_.resize(block_count, 0);
    requesters_.resize(block_count);
    std::vector<BlockId> needed;
    for (size_t slot : round_slots_) {
      const Task& task = slots_[slot];
      if (!is_home(task)) {
        continue;
      }
      for (BlockId j : task.blocks) {
        DPACK_CHECK_MSG(j >= 0 && static_cast<size_t>(j) < block_count,
                        "task references unknown block " << j);
        if (needed_stamp_[static_cast<size_t>(j)] != round_stamp_) {
          needed_stamp_[static_cast<size_t>(j)] = round_stamp_;
          needed.push_back(j);
          requesters_[static_cast<size_t>(j)].clear();
        }
      }
    }
    for (size_t slot : round_slots_) {
      for (BlockId j : slots_[slot].blocks) {
        if (j >= 0 && static_cast<size_t>(j) < block_count &&
            needed_stamp_[static_cast<size_t>(j)] == round_stamp_) {
          requesters_[static_cast<size_t>(j)].push_back(slot);
        }
      }
    }
    for (BlockId j : needed) {
      best_alpha_[static_cast<size_t>(j)] =
          BestAlphaForBlock(slots_, requesters_[static_cast<size_t>(j)],
                            snapshot_->available(j), eta_);
    }
    best_alpha_span = std::span<const size_t>(best_alpha_);
  }

  for (size_t slot : round_slots_) {
    const Task& task = slots_[slot];
    if (!is_home(task)) {
      continue;
    }
    double score = ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_span);
    reply.entries.push_back({score, task.arrival_time, task.id});
  }
  return reply;
}

StateMsg CaptureReplicaState(const BlockManager& blocks, std::span<const Task> pending) {
  AllocationMetrics metrics;
  SnapshotMeta meta;
  meta.period = 1.0;
  meta.unlock_steps = 1;
  meta.num_shards = 1;
  for (const Task& task : pending) {
    metrics.RecordSubmission(task.weight, false);
    meta.checkpoint_time = std::max(meta.checkpoint_time, task.arrival_time);
  }
  meta.next_cycle_time = meta.checkpoint_time;
  StateMsg state;
  state.snapshot = EncodeSnapshotBinary(CaptureSnapshot(blocks, pending, metrics, meta));
  return state;
}

int ServiceWorkerMain(WorkerEndpoint& endpoint) {
  WorkerReplica replica;
  ServiceMessage msg;
  while (endpoint.Receive(&msg)) {
    if (auto* bind = std::get_if<BindMsg>(&msg)) {
      replica.ApplyBind(*bind);
      if (!endpoint.Send(HelloMsg{static_cast<uint32_t>(endpoint.index())})) {
        return 3;
      }
      endpoint.SetLifeState(WorkerLifeState::kReady);
    } else if (auto* blocks = std::get_if<BlockUpsertMsg>(&msg)) {
      replica.ApplyBlockUpsert(*blocks);
    } else if (auto* refresh = std::get_if<BlockRefreshMsg>(&msg)) {
      replica.ApplyBlockRefresh(*refresh);
    } else if (auto* tasks = std::get_if<TaskUpsertMsg>(&msg)) {
      replica.ApplyTaskUpsert(*tasks);
    } else if (auto* state = std::get_if<StateMsg>(&msg)) {
      std::string error;
      if (!replica.ApplyState(*state, &error)) {
        return 2;
      }
    } else if (auto* request = std::get_if<ScoreRequestMsg>(&msg)) {
      if (!endpoint.Send(replica.ScoreRound(*request))) {
        return 3;
      }
    } else if (std::get_if<ShutdownMsg>(&msg) != nullptr) {
      endpoint.SetLifeState(WorkerLifeState::kExited);
      return 0;
    } else {
      return 2;  // ScoreReply/Hello arriving at a worker is a protocol violation.
    }
  }
  return 2;  // Corrupt inbound ring, undecodable frame, or orphaned by a dead daemon.
}

}  // namespace dpack
