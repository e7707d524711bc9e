// WorkerReplica stores each task once, in a slot it may reuse after a departure, so a
// long-lived replica's slot layout depends on its whole history while a cold-started one's
// does not. Scores must not: a round reads tasks through its slots in batch order, so every
// requester list, summation order and score bit is the cold replica's. This suite feeds a
// long-lived replica a seeded multi-round diff stream (departures, arrivals reusing freed
// slots, late block resolution, a State replay mid-stream) and checks every round's replies
// bit for bit against a replica cold-started from a snapshot of the same state. The block
// diff the stream uses is the daemon's own; its refresh set must equal a full version scan.

#include "src/service/worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/wire.h"
#include "src/service/service_scheduler.h"

namespace dpack {
namespace {

constexpr uint32_t kShards = 3;

BindMsg Bind(GreedyMetric metric, const AlphaGridPtr& grid) {
  BindMsg bind;
  bind.num_workers = 1;
  bind.num_shards = kShards;
  bind.metric = metric;
  bind.eta = 0.05;
  bind.alpha_orders = grid->orders();
  return bind;
}

// The daemon's side of the stream: authoritative blocks and batch, plus its diff cursors.
struct Daemon {
  explicit Daemon(AlphaGridPtr grid) : blocks(grid, 10.0, 1e-7) {}

  // The diffs since the last call, as the daemon ships them.
  void Diff(BlockUpsertMsg* upserts, BlockRefreshMsg* refreshes, TaskUpsertMsg* tasks) {
    block_diff.Diff(blocks, upserts, refreshes);
    for (const Task& task : pending) {
      auto it = sent.find(task.id);
      if (it != sent.end() && it->second == task.blocks.size()) {
        continue;
      }
      TaskUpsertMsg::Entry entry{task.id, task.weight, task.arrival_time,
                                 task.demand.epsilons(), {}};
      for (BlockId b : task.blocks) entry.blocks.push_back(b);
      tasks->entries.push_back(std::move(entry));
      sent[task.id] = task.blocks.size();
    }
  }

  BlockManager blocks;
  std::vector<Task> pending;
  BlockDiff block_diff;
  std::map<TaskId, size_t> sent;
};

std::vector<ScoreRequestMsg> Requests(uint64_t round, const std::vector<Task>& pending) {
  ScoreRequestMsg request;
  request.round = round;
  for (const Task& task : pending) request.batch_ids.push_back(task.id);
  ScoreRequestMsg first = request;
  first.shards = {0, 2};
  ScoreRequestMsg second = request;
  second.shards = {1};
  return {first, second};
}

std::string ReplyBits(const ScoreReplyMsg& reply) {
  std::ostringstream out;
  out << "round " << reply.round << ":";
  for (const ScoreReplyMsg::Entry& e : reply.entries) {
    out << " " << e.id << "/" << BitsOfDouble(e.score) << "/" << BitsOfDouble(e.arrival_time);
  }
  return out.str();
}

void RunStream(GreedyMetric metric, uint64_t seed) {
  AlphaGridPtr grid = AlphaGrid::Default();
  Daemon daemon(grid);
  const RdpCurve capacity = BlockCapacityCurve(grid, 10.0, 1e-7);
  Rng rng(seed);
  WorkerReplica live;
  live.ApplyBind(Bind(metric, grid));
  TaskId next_id = 0;
  std::vector<TaskId> unresolved;  // Tasks waiting for their block list.

  for (uint64_t round = 1; round <= 40; ++round) {
    double now = static_cast<double>(round);
    for (int64_t b = rng.UniformInt(0, 2); b > 0; --b) {
      daemon.blocks.AddBlock(now);
    }
    daemon.blocks.UpdateUnlocks(now, 1.0, 4);
    size_t block_count = daemon.blocks.block_count();

    // Departures: a granted task commits its demand to its blocks, an evicted one does not.
    for (size_t i = 0; i < daemon.pending.size();) {
      const Task& task = daemon.pending[i];
      if (task.blocks.empty() || !rng.Bernoulli(0.3)) {
        ++i;
        continue;
      }
      bool fits = std::all_of(task.blocks.begin(), task.blocks.end(), [&](BlockId j) {
        return daemon.blocks.block(j).CanAccept(task.demand);
      });
      if (fits && rng.Bernoulli(0.7)) {
        for (BlockId j : task.blocks) daemon.blocks.block(j).Commit(task.demand);
      }
      daemon.pending.erase(daemon.pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Late resolution: tasks that arrived before their blocks get a block list now.
    for (TaskId id : unresolved) {
      for (Task& task : daemon.pending) {
        if (task.id == id && block_count > 0) {
          task.blocks = daemon.blocks.MostRecentBlocks(1 + id % 3);
        }
      }
    }
    unresolved.clear();
    // Arrivals, after the departures so they reuse freed slots; uniform weights on even
    // seeds exercise the exact-cardinality best alpha, mixed weights the FPTAS.
    for (int64_t a = rng.UniformInt(1, 5); a > 0; --a) {
      double weight = seed % 2 == 0 ? 1.0 : rng.Uniform(0.5, 3.0);
      Task task(next_id++, weight, capacity.Scaled(rng.Uniform(0.02, 0.4)));
      task.arrival_time = now;
      if (block_count == 0 || rng.Bernoulli(0.15)) {
        unresolved.push_back(task.id);
      } else {
        std::vector<BlockId> recent =
            daemon.blocks.MostRecentBlocks(static_cast<size_t>(rng.UniformInt(1, 4)));
        task.blocks = recent;
      }
      daemon.pending.push_back(std::move(task));
    }

    BlockUpsertMsg upserts;
    BlockRefreshMsg refreshes;
    TaskUpsertMsg tasks;
    daemon.Diff(&upserts, &refreshes, &tasks);
    live.ApplyBlockUpsert(upserts);
    live.ApplyBlockRefresh(refreshes);
    live.ApplyTaskUpsert(tasks);
    StateMsg state = CaptureReplicaState(daemon.blocks, daemon.pending);
    std::string error;
    if (round == 20) {
      // A respawned worker's replay, mid-stream; the diffs then continue on top of it.
      ASSERT_TRUE(live.ApplyState(state, &error)) << error;
    }

    WorkerReplica cold;
    cold.ApplyBind(Bind(metric, grid));
    ASSERT_TRUE(cold.ApplyState(state, &error)) << error;
    for (const ScoreRequestMsg& request : Requests(round, daemon.pending)) {
      ASSERT_EQ(ReplyBits(live.ScoreRound(request)), ReplyBits(cold.ScoreRound(request)))
          << "seed " << seed << " round " << round << " shards " << request.shards.size();
    }
    EXPECT_EQ(live.task_count(), daemon.pending.size()) << "round " << round;
    EXPECT_EQ(live.block_count(), daemon.blocks.block_count()) << "round " << round;
  }
}

TEST(WorkerReplicaTest, LongLivedRepliesMatchAColdStartEveryRound) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunStream(GreedyMetric::kDpack, seed);
  }
  RunStream(GreedyMetric::kArea, 7);
  RunStream(GreedyMetric::kDpf, 8);
}

TEST(WorkerReplicaTest, UnknownTaskInARequestAborts) {
  AlphaGridPtr grid = AlphaGrid::Default();
  WorkerReplica replica;
  replica.ApplyBind(Bind(GreedyMetric::kDpack, grid));
  ScoreRequestMsg request;
  request.round = 1;
  request.batch_ids = {42};
  request.shards = {0};
  EXPECT_DEATH(replica.ScoreRound(request), "unknown task 42");
}

// The daemon's block diff against a full version scan, over more than two version-tree
// groups: arrivals into a half-filled group, commits in a far group, unlock waves, and
// cycles where nothing changes.
TEST(BlockDiffTest, RefreshSetEqualsAFullVersionScan) {
  AlphaGridPtr grid = AlphaGrid::Default();
  BlockManager blocks(grid, 10.0, 1e-7);
  const RdpCurve demand = BlockCapacityCurve(grid, 10.0, 1e-7).Scaled(0.01);
  BlockDiff diff;
  std::vector<uint64_t> scanned;  // The full scan's cursor.
  Rng rng(5);
  for (int b = 0; b < 160; ++b) blocks.AddBlock(0.0, /*unlocked=*/true);  // Group 2 half full.
  for (int cycle = 0; cycle < 60; ++cycle) {
    if (cycle % 7 == 3) {
      blocks.AddBlock(cycle);  // Lands in the half-filled group, locked until unlocks run.
    }
    if (cycle % 5 == 0) {
      blocks.UpdateUnlocks(cycle, 1.0, 3);
    }
    if (cycle % 4 != 1) {  // Every fourth cycle changes nothing.
      for (int64_t c = rng.UniformInt(1, 3); c > 0; --c) {
        // Mostly the first group or the far end, so most groups stay clean.
        BlockId j = rng.Bernoulli(0.5) ? rng.UniformInt(0, 5)
                                       : static_cast<BlockId>(blocks.block_count()) - 1 -
                                             rng.UniformInt(0, 3);
        if (blocks.block(j).CanAccept(demand)) blocks.block(j).Commit(demand);
      }
    }

    std::vector<int64_t> expected_refresh;
    std::vector<int64_t> expected_upsert;
    for (size_t j = 0; j < blocks.block_count(); ++j) {
      uint64_t version = blocks.block(static_cast<BlockId>(j)).version();
      if (j >= scanned.size()) {
        expected_upsert.push_back(static_cast<int64_t>(j));
        scanned.push_back(version);
      } else if (version != scanned[j]) {
        expected_refresh.push_back(static_cast<int64_t>(j));
        scanned[j] = version;
      }
    }

    BlockUpsertMsg upserts;
    BlockRefreshMsg refreshes;
    diff.Diff(blocks, &upserts, &refreshes);
    std::vector<int64_t> refresh_ids;
    for (const auto& e : refreshes.entries) {
      refresh_ids.push_back(e.id);
      EXPECT_EQ(e.available, blocks.block(e.id).AvailableCurve().epsilons());
    }
    std::vector<int64_t> upsert_ids;
    for (const auto& e : upserts.entries) upsert_ids.push_back(e.id);
    EXPECT_EQ(refresh_ids, expected_refresh) << "cycle " << cycle;
    EXPECT_EQ(upsert_ids, expected_upsert) << "cycle " << cycle;
  }
  EXPECT_GT(blocks.block_count(), 2 * (size_t{1} << BlockVersionTree::kGroupShift));
}

}  // namespace
}  // namespace dpack
