#include "src/service/service_scheduler.h"

#include <signal.h>

#include <algorithm>
#include <climits>
#include <utility>

#include "src/block/version_tree.h"
#include "src/common/check.h"
#include "src/core/schedule_context.h"

namespace dpack {

namespace {

TransportConfig TransportConfigFor(const ServiceConfig& config) {
  TransportConfig t;
  t.num_workers = config.num_workers;
  t.ring_bytes = config.ring_bytes;
  t.poll_sleep_us = config.poll_sleep_us;
  t.stall_budget = config.stall_budget;
  return t;
}

}  // namespace

ServiceScheduler::ServiceScheduler(GreedyMetric metric, ServiceConfig config)
    : metric_(metric),
      config_(config),
      num_shards_(config.num_shards > 0 ? config.num_shards : config.num_workers),
      transport_(TransportConfigFor(config),
                 [](WorkerEndpoint& endpoint) { return ServiceWorkerMain(endpoint); }) {
  DPACK_CHECK(config_.num_workers >= 1);
  DPACK_CHECK(num_shards_ >= 1);
}

ServiceScheduler::~ServiceScheduler() {
  Shutdown();
  if (config_.counters_sink != nullptr) {
    *config_.counters_sink = transport_.counters();
  }
}

std::string ServiceScheduler::name() const {
  switch (metric_) {
    case GreedyMetric::kDpf:
      return "ServiceDPF";
    case GreedyMetric::kArea:
      return "ServiceArea";
    case GreedyMetric::kDpack:
      return "ServiceDPack";
    case GreedyMetric::kFcfs:
      return "ServiceFCFS";
  }
  return "Service";
}

void ServiceScheduler::Shutdown() {
  if (transport_.started()) {
    transport_.ShutdownAll();
  }
}

void ServiceScheduler::BindWorker(size_t w, const BlockManager& blocks) {
  BindMsg bind;
  bind.worker_index = static_cast<uint32_t>(w);
  bind.num_workers = static_cast<uint32_t>(config_.num_workers);
  bind.num_shards = static_cast<uint32_t>(num_shards_);
  bind.metric = metric_;
  bind.eta = config_.eta;
  bind.alpha_orders = blocks.grid()->orders();
  DPACK_CHECK_MSG(transport_.Send(w, bind), "worker " << w << " died before binding");
  AwaitHello(w);
}

void ServiceScheduler::AwaitHello(size_t w) {
  uint64_t polls = 0;
  while (true) {
    uint32_t seen = transport_.ArmReplies();
    ServiceMessage msg;
    std::string error;
    RingPopStatus status = transport_.TryReceive(w, &msg, &error);
    if (status == RingPopStatus::kOk) {
      auto* hello = std::get_if<HelloMsg>(&msg);
      DPACK_CHECK_MSG(hello != nullptr && hello->worker_index == w,
                      "worker " << w << " answered Bind with the wrong message");
      return;
    }
    DPACK_CHECK_MSG(status != RingPopStatus::kCorrupt,
                    "worker " << w << " ring corrupt during bind: " << error);
    DPACK_CHECK_MSG(transport_.Poll(w) == ChildState::kRunning,
                    "worker " << w << " died during the bind handshake");
    DPACK_CHECK_MSG(++polls < config_.stall_budget,
                    "worker " << w << " never answered Bind (stall budget exhausted)");
    transport_.WaitForReplies(seen);
  }
}

void ServiceScheduler::EnsureStarted(const BlockManager& blocks) {
  if (transport_.started()) {
    return;
  }
  transport_.Start();
  outstanding_.resize(config_.num_workers);
  dead_handled_.assign(config_.num_workers, false);
  owner_of_shard_.resize(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    owner_of_shard_[s] = s % config_.num_workers;
  }
  for (size_t w = 0; w < config_.num_workers; ++w) {
    BindWorker(w, blocks);
  }
}

void BlockDiff::Diff(const BlockManager& blocks, BlockUpsertMsg* upserts,
                     BlockRefreshMsg* refreshes) {
  size_t count = blocks.block_count();
  DPACK_CHECK_MSG(count >= last_version_.size(),
                  "blocks disappeared: a block diff follows one BlockManager");
  ForEachChangedBlock(
      blocks.version_tree(), group_seen_, last_version_,
      [&](size_t j) { return blocks.block(static_cast<BlockId>(j)).version(); },
      [&](size_t j) {
        refreshes->entries.push_back(
            {static_cast<int64_t>(j),
             blocks.block(static_cast<BlockId>(j)).AvailableCurve().epsilons()});
      });
  for (size_t j = last_version_.size(); j < count; ++j) {
    const PrivacyBlock& b = blocks.block(static_cast<BlockId>(j));
    upserts->entries.push_back(
        {static_cast<int64_t>(j), b.AvailableCurve().epsilons(), b.capacity().epsilons()});
    last_version_.push_back(b.version());
  }
}

void ServiceScheduler::BroadcastDiffs(std::span<const Task> pending,
                                      const BlockManager& blocks) {
  BlockUpsertMsg upserts;
  BlockRefreshMsg refreshes;
  block_diff_.Diff(blocks, &upserts, &refreshes);

  TaskUpsertMsg tasks;
  for (const Task& task : pending) {
    auto it = sent_tasks_.find(task.id);
    // Re-send on a block-list length change: late resolution (empty -> resolved) is the one
    // sanctioned post-submission mutation, and it always changes the length.
    if (it != sent_tasks_.end() && it->second == task.blocks.size()) {
      continue;
    }
    TaskUpsertMsg::Entry entry;
    entry.id = task.id;
    entry.weight = task.weight;
    entry.arrival_time = task.arrival_time;
    entry.demand = task.demand.epsilons();
    entry.blocks.reserve(task.blocks.size());
    for (BlockId b : task.blocks) {
      entry.blocks.push_back(static_cast<int64_t>(b));
    }
    tasks.entries.push_back(std::move(entry));
    sent_tasks_[task.id] = task.blocks.size();
  }
  // Forget tasks no longer pending (granted or evicted; they never return): one merge walk
  // of the id-ordered map against the batch's sorted ids.
  auto live = id_index_.begin();
  for (auto it = sent_tasks_.begin(); it != sent_tasks_.end();) {
    while (live != id_index_.end() && live->first < it->first) {
      ++live;
    }
    if (live != id_index_.end() && live->first == it->first) {
      ++it;
    } else {
      it = sent_tasks_.erase(it);
    }
  }

  // Every replica applies the same diff stream, so each message is encoded and checksummed
  // once and the same frame goes to every worker, in upsert, refresh, task order.
  std::vector<EncodedFrame> frames;
  if (!upserts.entries.empty()) {
    frames.emplace_back(EncodeMessage(ServiceMessage(std::move(upserts))));
  }
  if (!refreshes.entries.empty()) {
    frames.emplace_back(EncodeMessage(ServiceMessage(std::move(refreshes))));
  }
  if (!tasks.entries.empty()) {
    frames.emplace_back(EncodeMessage(ServiceMessage(std::move(tasks))));
  }
  for (size_t w = 0; w < config_.num_workers; ++w) {
    for (const EncodedFrame& frame : frames) {
      // A dead worker fails its first send. One that died mid-broadcast is recovered before
      // the requests from a post-diff snapshot, so skipping the rest of its diff is safe.
      if (!transport_.SendFrame(w, frame)) {
        break;
      }
    }
  }
}

void ServiceScheduler::SendScoreRequest(size_t w, std::vector<uint32_t> shards) {
  DPACK_CHECK(!shards.empty());
  ScoreRequestMsg request;
  request.round = round_;
  request.batch_ids = batch_ids_;
  request.shards = shards;
  // Register before sending: if the worker dies under the send, RecoverWorker finds the
  // request among its orphans and re-routes it.
  outstanding_[w].push_back(std::move(shards));
  if (!transport_.Send(w, request)) {
    RecoverWorker(w);
  }
}

void ServiceScheduler::RecoverWorker(size_t w) {
  DPACK_CHECK(!transport_.alive(w));
  if (dead_handled_[w]) {
    return;
  }
  dead_handled_[w] = true;
  ++transport_.counters().recoveries;

  // Everything this worker still owed the current round.
  std::vector<uint32_t> orphans;
  for (const std::vector<uint32_t>& shards : outstanding_[w]) {
    orphans.insert(orphans.end(), shards.begin(), shards.end());
  }
  outstanding_[w].clear();

  if (config_.recovery == ServiceRecovery::kRespawn) {
    // The daemon owns both ends of a dead worker's rings: resetting them discards stale
    // in-flight frames a replacement must never double-apply.
    transport_.ResetRings(w);
    transport_.Respawn(w);
    dead_handled_[w] = false;  // Alive again.
    DPACK_CHECK(blocks_ != nullptr);
    BindWorker(w, *blocks_);
    // Cold start through the checkpoint codec: the replica the replacement restores is
    // byte-identical to the state the round was broadcast against, because blocks mutate
    // only in AllocateInOrder — after every reply is in — never mid-round.
    StateMsg state = CaptureReplicaState(*blocks_, pending_);
    ++transport_.counters().state_replays;
    if (transport_.Send(w, state)) {
      if (!orphans.empty()) {
        SendScoreRequest(w, std::move(orphans));
      }
      return;
    }
    // The replacement died immediately (double fault); fall through to reassignment so the
    // round still completes.
    dead_handled_[w] = false;
    RecoverWorker(w);
    return;
  }

  // kReassign: every shard the dead worker owned moves to the survivors, permanently,
  // ascending round-robin — a deterministic function of (owner map, liveness), so repeated
  // runs with the same fault schedule re-derive the same assignment.
  std::vector<size_t> survivors;
  for (size_t v = 0; v < config_.num_workers; ++v) {
    if (transport_.alive(v)) {
      survivors.push_back(v);
    }
  }
  DPACK_CHECK_MSG(!survivors.empty(), "every scheduler worker is dead; cannot recover");
  size_t next = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (owner_of_shard_[s] == w) {
      owner_of_shard_[s] = survivors[next++ % survivors.size()];
    }
  }
  if (!orphans.empty()) {
    // Scoring is pure, so a survivor re-scoring the orphaned shards against its replica
    // produces bit-identical entries to what the dead worker would have sent.
    std::map<size_t, std::vector<uint32_t>> reroute;
    for (uint32_t s : orphans) {
      reroute[owner_of_shard_[s]].push_back(s);
    }
    for (auto& [owner, shards] : reroute) {
      SendScoreRequest(owner, std::move(shards));
    }
  }
}

void ServiceScheduler::CollectReplies() {
  entries_.clear();
  size_t workers = config_.num_workers;
  std::vector<uint64_t> last_heartbeat(workers, 0);
  std::vector<uint64_t> stalled_polls(workers, 0);
  for (size_t w = 0; w < workers; ++w) {
    if (transport_.alive(w)) {
      last_heartbeat[w] = transport_.heartbeat(w);
    }
  }
  auto outstanding_total = [&] {
    size_t total = 0;
    for (const auto& queue : outstanding_) {
      total += queue.size();
    }
    return total;
  };
  while (outstanding_total() > 0) {
    // Arm before the scan: a reply pushed after it moves the bell past `seen`, so the wait
    // below cannot sleep through it.
    uint32_t seen = transport_.ArmReplies();
    bool progress = false;
    for (size_t w = 0; w < workers; ++w) {
      if (outstanding_[w].empty() || !transport_.alive(w)) {
        continue;
      }
      ServiceMessage msg;
      std::string error;
      RingPopStatus status = transport_.TryReceive(w, &msg, &error);
      if (status == RingPopStatus::kEmpty) {
        continue;
      }
      if (status == RingPopStatus::kCorrupt) {
        // A poisoned ring is indistinguishable from a corrupted worker: replace it and
        // re-request, exactly like a death.
        transport_.Kill(w, SIGKILL);
        RecoverWorker(w);
        progress = true;
        continue;
      }
      if (auto* reply = std::get_if<ScoreReplyMsg>(&msg)) {
        DPACK_CHECK_MSG(reply->round == round_, "worker " << w << " answered round "
                                                          << reply->round << " in round "
                                                          << round_);
        entries_.insert(entries_.end(), reply->entries.begin(), reply->entries.end());
        outstanding_[w].erase(outstanding_[w].begin());  // FIFO: front request answered.
        progress = true;
      } else {
        DPACK_CHECK_MSG(false, "unexpected message type from worker " << w);
      }
    }
    // A worker marked dead with requests still registered (send-time detection outside
    // RecoverWorker) is handed to recovery here.
    for (size_t w = 0; w < workers; ++w) {
      if (!outstanding_[w].empty() && !transport_.alive(w) && !dead_handled_[w]) {
        RecoverWorker(w);
        progress = true;
      }
    }
    if (progress) {
      continue;
    }
    // No frame anywhere: look for corpses (waitpid) and hangs (heartbeat stalled for the
    // whole iteration budget — an idle worker's heartbeat advances at least every
    // poll_sleep_us, so a heartbeat flat across budget wait iterations with a live pid means
    // SIGSTOP or a wedge, and the daemon replaces the worker the same way it replaces a
    // corpse).
    for (size_t w = 0; w < workers; ++w) {
      if (outstanding_[w].empty() || !transport_.alive(w)) {
        continue;
      }
      if (transport_.Poll(w) != ChildState::kRunning) {
        RecoverWorker(w);
        continue;
      }
      uint64_t beat = transport_.heartbeat(w);
      if (beat != last_heartbeat[w]) {
        last_heartbeat[w] = beat;
        stalled_polls[w] = 0;
      } else if (++stalled_polls[w] >= config_.stall_budget) {
        transport_.Kill(w, SIGKILL);
        RecoverWorker(w);
      }
    }
    transport_.WaitForReplies(seen);
  }
}

std::vector<size_t> ServiceScheduler::ScheduleBatch(std::span<const Task> pending,
                                                    BlockManager& blocks) {
  if (pending.empty()) {
    return {};  // No round — matches the reference (and keeps counters workload-pure).
  }
  // Duplicate ids cannot be keyed by id across the wire; fall back to the recompute
  // reference exactly like the incremental engines do. Diff bookkeeping self-heals: the
  // fallback's commits bump block versions (shipped next round) and granted ids purge.
  batch_ids_.clear();
  id_index_.clear();
  for (size_t i = 0; i < pending.size(); ++i) {
    batch_ids_.push_back(pending[i].id);
    id_index_.emplace_back(pending[i].id, i);
  }
  // The one id sort of the cycle: it finds duplicates here, drives the diff purge and
  // indexes the merge.
  std::sort(id_index_.begin(), id_index_.end());
  if (std::adjacent_find(id_index_.begin(), id_index_.end(), [](const auto& a, const auto& b) {
        return a.first == b.first;
      }) != id_index_.end()) {
    return RecomputeScheduleBatch(metric_, config_.eta, pending, blocks);
  }

  EnsureStarted(blocks);
  pending_ = pending;
  blocks_ = &blocks;

  // Cheap pre-broadcast corpse sweep: deaths since the last cycle are found now and
  // recovered (post-diff) before any request goes out.
  for (size_t w = 0; w < config_.num_workers; ++w) {
    if (transport_.alive(w)) {
      transport_.Poll(w);
    }
  }

  BroadcastDiffs(pending, blocks);
  ++round_;
  ++transport_.counters().score_rounds;

  // Recover any dead worker before requesting: a respawned replacement restores the
  // post-diff state; a reassignment re-homes its shards so every shard has a live owner.
  for (size_t w = 0; w < config_.num_workers; ++w) {
    if (!transport_.alive(w) && !dead_handled_[w]) {
      RecoverWorker(w);
    }
  }

  // Fault injection: SIGKILL by raw pid, bypassing the transport bookkeeping — the daemon
  // must *discover* the death through its own waitpid/heartbeat path, which is the
  // machinery under test. The kill lands after the diffs and before the requests, and the
  // daemon waits for the exit (without reaping it), so the victim can never answer this
  // round: its request is still registered and pushed, and always re-routed, which keeps
  // every counter a function of the fault schedule alone.
  if (!kill_fired_ && config_.kill_at_round == round_ &&
      config_.kill_worker < config_.num_workers) {
    kill_fired_ = true;
    if (transport_.alive(config_.kill_worker)) {
      pid_t victim = transport_.pid(config_.kill_worker);
      KillChild(victim, SIGKILL);
      AwaitChildExit(victim, static_cast<unsigned int>(std::min<uint64_t>(
                                 config_.stall_budget * config_.poll_sleep_us, UINT_MAX)));
    }
  }

  for (size_t w = 0; w < config_.num_workers; ++w) {
    if (!transport_.alive(w)) {
      continue;
    }
    std::vector<uint32_t> shards;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (owner_of_shard_[s] == w) {
        shards.push_back(static_cast<uint32_t>(s));
      }
    }
    if (!shards.empty()) {
      SendScoreRequest(w, std::move(shards));
    }
  }

  CollectReplies();

  DPACK_CHECK_MSG(entries_.size() == pending.size(),
                  "merged " << entries_.size() << " score entries for a batch of "
                            << pending.size());
  std::vector<HeapEntry> merged;
  merged.reserve(entries_.size());
  for (const ScoreReplyMsg::Entry& e : entries_) {
    HeapEntry entry;
    entry.score = e.score;
    entry.arrival = e.arrival_time;
    entry.id = static_cast<TaskId>(e.id);
    merged.push_back(entry);
  }
  // HeapEntryBefore is the reference sort's exact total order (score desc, arrival asc,
  // id asc) — strict for unique ids, so the merged order is deterministic regardless of
  // which worker produced which entry.
  std::sort(merged.begin(), merged.end(), HeapEntryBefore);
  std::vector<size_t> order;
  order.reserve(merged.size());
  for (const HeapEntry& entry : merged) {
    auto it = std::lower_bound(
        id_index_.begin(), id_index_.end(), entry.id,
        [](const std::pair<TaskId, size_t>& a, TaskId id) { return a.first < id; });
    DPACK_CHECK_MSG(it != id_index_.end() && it->first == entry.id,
                    "worker scored unknown task " << entry.id);
    order.push_back(it->second);
  }
  std::vector<size_t> granted = AllocateInOrder(pending, blocks, order);
  pending_ = {};
  blocks_ = nullptr;
  return granted;
}

}  // namespace dpack
