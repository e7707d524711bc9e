#include "src/service/worker.h"

#include <algorithm>
#include <utility>

#include "src/block/block_manager.h"
#include "src/common/check.h"
#include "src/core/schedule_context.h"
#include "src/orchestrator/checkpoint.h"

namespace dpack {

namespace {

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
  tasks_.clear();
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

void WorkerReplica::ApplyTaskUpsert(const TaskUpsertMsg& msg) {
  DPACK_CHECK(bound_);
  for (const TaskUpsertMsg::Entry& e : msg.entries) {
    Task task(static_cast<TaskId>(e.id), e.weight, RdpCurve(grid_, e.demand));
    task.arrival_time = e.arrival_time;
    task.blocks.reserve(e.blocks.size());
    for (int64_t b : e.blocks) {
      task.blocks.push_back(static_cast<BlockId>(b));
    }
    tasks_.insert_or_assign(task.id, std::move(task));
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
  tasks_.clear();
  for (Task& task : RestorePendingTasks(parsed.snapshot, grid_)) {
    TaskId id = task.id;
    tasks_.insert_or_assign(id, std::move(task));
  }
  return true;
}

ScoreReplyMsg WorkerReplica::ScoreRound(const ScoreRequestMsg& msg) {
  DPACK_CHECK(bound_);
  ScoreReplyMsg reply;
  reply.round = msg.round;

  // Rebuild the batch, in batch order, from the payload map.
  batch_.clear();
  batch_.reserve(msg.batch_ids.size());
  for (int64_t id : msg.batch_ids) {
    auto it = tasks_.find(static_cast<TaskId>(id));
    DPACK_CHECK_MSG(it != tasks_.end(), "score request references unknown task " << id);
    batch_.push_back(it->second);
  }

  // Drop payloads absent from the batch: a granted or evicted task never reappears, and
  // the purge keeps replica memory proportional to the live queue. (Ordered map + sorted
  // id probe: no hash-order dependence anywhere near the scoring path.)
  std::vector<int64_t> sorted_ids = msg.batch_ids;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (std::binary_search(sorted_ids.begin(), sorted_ids.end(),
                           static_cast<int64_t>(it->first))) {
      ++it;
    } else {
      it = tasks_.erase(it);
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
    for (const Task& task : batch_) {
      if (is_home(task)) {
        reply.entries.push_back({0.0, task.arrival_time, task.id});
      }
    }
    return reply;
  }

  std::span<const Task> batch_span(batch_);
  std::span<const size_t> best_alpha_span;
  if (metric_ == GreedyMetric::kDpack) {
    // Solve best alphas only for blocks some home task requests — but with requester lists
    // drawn from the FULL batch in batch order, exactly the inputs ComputeBestAlphas feeds
    // BestAlphaForBlock, so the per-block solutions are bit-identical to the reference.
    ++round_stamp_;
    size_t block_count = snapshot_->block_count();
    best_alpha_.assign(block_count, 0);
    needed_stamp_.resize(block_count, 0);
    requesters_.resize(block_count);
    std::vector<BlockId> needed;
    for (const Task& task : batch_) {
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
    for (size_t i = 0; i < batch_.size(); ++i) {
      for (BlockId j : batch_[i].blocks) {
        if (j >= 0 && static_cast<size_t>(j) < block_count &&
            needed_stamp_[static_cast<size_t>(j)] == round_stamp_) {
          requesters_[static_cast<size_t>(j)].push_back(i);
        }
      }
    }
    for (BlockId j : needed) {
      best_alpha_[static_cast<size_t>(j)] =
          BestAlphaForBlock(batch_span, requesters_[static_cast<size_t>(j)],
                            snapshot_->available(j), eta_);
    }
    best_alpha_span = std::span<const size_t>(best_alpha_);
  }

  for (const Task& task : batch_) {
    if (!is_home(task)) {
      continue;
    }
    double score = ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_span);
    reply.entries.push_back({score, task.arrival_time, task.id});
  }
  return reply;
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
