#include "src/orchestrator/checkpoint.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/wire.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {

namespace {

constexpr char kBinaryMagic[8] = {'D', 'P', 'C', 'K', 'S', 'N', 'A', 'P'};

bool NotNan(double v) { return !std::isnan(v); }
bool FiniteValue(double v) { return std::isfinite(v); }

// `value <= cap` up to PrivacyBlock::CanAccept's admission slack.
bool WithinCapacity(double value, double cap) { return value <= cap + 1e-9 * (1.0 + cap); }

}  // namespace

// --- Capture -------------------------------------------------------------------------------

ClusterSnapshot CaptureSnapshot(const BlockManager& blocks, std::span<const Task> pending,
                                const AllocationMetrics& metrics, const SnapshotMeta& meta) {
  DPACK_CHECK(meta.num_shards >= 1);
  ClusterSnapshot snapshot;
  snapshot.meta = meta;
  snapshot.grid_orders = blocks.grid()->orders();
  snapshot.eps_g = blocks.eps_g();
  snapshot.delta_g = blocks.delta_g();
  snapshot.manager_epoch = blocks.epoch();

  snapshot.blocks.reserve(blocks.block_count());
  snapshot.shard_clocks.assign(static_cast<size_t>(meta.num_shards), SnapshotShardClock{});
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    const PrivacyBlock& block = blocks.block(static_cast<BlockId>(j));
    SnapshotBlockState state;
    state.id = block.id();
    state.arrival_time = block.arrival_time();
    state.unlocked_fraction = block.unlocked_fraction();
    state.version = block.version();
    BlockPlacement placement = blocks.placement_of(static_cast<BlockId>(j));
    state.retired = placement.retired;
    state.slot = placement.slot;
    state.capacity = block.capacity().epsilons();
    state.consumed = block.consumed().epsilons();
    snapshot.blocks.push_back(std::move(state));
    // Derived per-shard clocks under the engine's round-robin partition (block j in shard
    // j mod num_shards).
    SnapshotShardClock& clock = snapshot.shard_clocks[j % snapshot.shard_clocks.size()];
    clock.epoch += 1;
    clock.version += block.version();
  }

  snapshot.pending.reserve(pending.size());
  for (const Task& task : pending) {
    SnapshotTaskState state;
    state.id = task.id;
    state.weight = task.weight;
    state.arrival_time = task.arrival_time;
    state.timeout = task.timeout;
    state.demand = task.demand.epsilons();
    state.blocks = task.blocks;
    state.num_recent_blocks = task.num_recent_blocks;
    snapshot.pending.push_back(std::move(state));
  }

  SnapshotMetricsState& m = snapshot.metrics;
  m.submitted = metrics.submitted();
  m.allocated = metrics.allocated();
  m.evicted = metrics.evicted();
  m.submitted_weight = metrics.submitted_weight();
  m.allocated_weight = metrics.allocated_weight();
  m.submitted_fair_share = metrics.submitted_fair_share();
  m.allocated_fair_share = metrics.allocated_fair_share();
  m.delay_samples = metrics.delays().samples();
  m.cycle_runtime = metrics.cycle_runtime_seconds().state();
  return snapshot;
}

// --- Validation ----------------------------------------------------------------------------

std::string ValidateSnapshot(const ClusterSnapshot& snapshot) {
  const SnapshotMeta& meta = snapshot.meta;
  if (!FiniteValue(meta.period) || meta.period <= 0.0) {
    return "meta.period must be positive and finite";
  }
  if (meta.unlock_steps < 1) {
    return "meta.unlock_steps must be >= 1";
  }
  if (meta.fair_share_n < 0) {
    return "meta.fair_share_n must be >= 0";
  }
  if (meta.num_shards < 1) {
    return "meta.num_shards must be >= 1";
  }
  if (!FiniteValue(meta.checkpoint_time) || !FiniteValue(meta.next_cycle_time) ||
      meta.next_cycle_time < meta.checkpoint_time) {
    return "meta checkpoint/next-cycle times inconsistent";
  }
  if (snapshot.grid_orders.empty()) {
    return "grid_orders must be non-empty";
  }
  for (size_t i = 0; i < snapshot.grid_orders.size(); ++i) {
    double order = snapshot.grid_orders[i];
    if (!FiniteValue(order) || order <= 1.0 ||
        (i > 0 && order <= snapshot.grid_orders[i - 1])) {
      return "grid_orders must be finite, > 1, and strictly increasing";
    }
  }
  if (!FiniteValue(snapshot.eps_g) || !FiniteValue(snapshot.delta_g) || snapshot.eps_g <= 0.0 ||
      snapshot.delta_g <= 0.0 || snapshot.delta_g >= 1.0) {
    return "global guarantee (eps_g, delta_g) out of range";
  }
  if (snapshot.manager_epoch != snapshot.blocks.size()) {
    return "manager_epoch must equal the block count";
  }
  // The most budget any block may hold under the global guarantee.
  std::vector<double> max_capacity =
      BlockCapacityCurve(AlphaGrid::Create(snapshot.grid_orders), snapshot.eps_g,
                         snapshot.delta_g)
          .epsilons();

  size_t orders = snapshot.grid_orders.size();
  std::vector<bool> hot_slot_seen;
  std::vector<bool> retired_slot_seen;
  size_t hot_total = 0;
  size_t retired_total = 0;
  for (const SnapshotBlockState& block : snapshot.blocks) {
    (block.retired ? retired_total : hot_total) += 1;
  }
  hot_slot_seen.assign(hot_total, false);
  retired_slot_seen.assign(retired_total, false);
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    const SnapshotBlockState& block = snapshot.blocks[j];
    if (block.id != static_cast<BlockId>(j)) {
      return "block ids must be dense and ordered";
    }
    if (!FiniteValue(block.arrival_time) || block.arrival_time < 0.0) {
      return "block arrival_time out of range";
    }
    if (!FiniteValue(block.unlocked_fraction) || block.unlocked_fraction < 0.0 ||
        block.unlocked_fraction > 1.0) {
      return "block unlocked_fraction out of [0, 1]";
    }
    if (block.capacity.size() != orders || block.consumed.size() != orders) {
      return "block curve sizes must match the grid";
    }
    // Beyond the range checks, the budget guarantee: capacity within what (eps_g, delta_g)
    // allows, and consumption within capacity at some usable order (the filter's "exists
    // alpha" invariant) unless nothing was ever charged.
    bool charged = false;
    bool within_some_order = false;
    for (size_t a = 0; a < orders; ++a) {
      double cap = block.capacity[a];
      double consumed = block.consumed[a];
      if (!NotNan(cap) || cap < 0.0 || !NotNan(consumed) || consumed < 0.0) {
        return "block curves must be non-negative and not NaN";
      }
      if (!WithinCapacity(cap, max_capacity[a])) {
        return "block capacity exceeds the global guarantee's capacity curve";
      }
      charged = charged || consumed != 0.0;
      within_some_order = within_some_order || (cap > 0.0 && WithinCapacity(consumed, cap));
    }
    if (charged && !within_some_order) {
      return "block consumed exceeds its capacity at every order";
    }
    // Each tier's slots must form a dense permutation (the slab layout Restore rebuilds).
    std::vector<bool>& seen = block.retired ? retired_slot_seen : hot_slot_seen;
    if (block.slot >= seen.size()) {
      return "block slot out of range for its tier";
    }
    if (seen[static_cast<size_t>(block.slot)]) {
      return "duplicate block slot within a tier";
    }
    seen[static_cast<size_t>(block.slot)] = true;
    if (block.retired) {
      // Retirement requires provable immutability: the full budget unlocked and every
      // usable order consumed to within the admission slack (PrivacyBlock::Exhausted).
      if (block.unlocked_fraction != 1.0) {
        return "retired block must be fully unlocked";
      }
      for (size_t a = 0; a < orders; ++a) {
        double cap = block.capacity[a];
        if (cap <= 0.0) {
          continue;
        }
        if (block.consumed[a] + 1e-9 * (1.0 + cap) < cap) {
          return "retired block must be exhausted";
        }
      }
    }
  }

  if (snapshot.shard_clocks.size() != static_cast<size_t>(meta.num_shards)) {
    return "shard_clocks must have num_shards entries";
  }
  std::vector<SnapshotShardClock> derived(snapshot.shard_clocks.size());
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    derived[j % derived.size()].epoch += 1;
    derived[j % derived.size()].version += snapshot.blocks[j].version;
  }
  for (size_t s = 0; s < derived.size(); ++s) {
    if (derived[s].epoch != snapshot.shard_clocks[s].epoch ||
        derived[s].version != snapshot.shard_clocks[s].version) {
      return "shard clocks inconsistent with block states";
    }
  }

  for (const SnapshotTaskState& task : snapshot.pending) {
    if (!FiniteValue(task.weight) || task.weight <= 0.0) {
      return "pending task weight out of range";
    }
    if (!FiniteValue(task.arrival_time) || task.arrival_time < 0.0 ||
        task.arrival_time > meta.checkpoint_time) {
      return "pending task arrival_time out of range";
    }
    if (std::isnan(task.timeout) || task.timeout < 0.0) {
      return "pending task timeout out of range";
    }
    if (task.demand.size() != orders) {
      return "pending task demand size must match the grid";
    }
    for (double eps : task.demand) {
      if (!NotNan(eps) || eps < 0.0) {
        return "pending task demand must be non-negative and not NaN";
      }
    }
    for (BlockId id : task.blocks) {
      if (id < 0 || static_cast<size_t>(id) >= snapshot.blocks.size()) {
        return "pending task references an unknown block";
      }
    }
  }

  const SnapshotMetricsState& m = snapshot.metrics;
  if (m.allocated > m.submitted || m.evicted > m.submitted - m.allocated) {
    return "metrics counts inconsistent";
  }
  if (m.submitted - m.allocated - m.evicted != snapshot.pending.size()) {
    return "metrics counts inconsistent with the pending queue";
  }
  if (m.submitted_fair_share > m.submitted || m.allocated_fair_share > m.allocated) {
    return "metrics fair-share counts inconsistent";
  }
  if (!FiniteValue(m.submitted_weight) || !FiniteValue(m.allocated_weight) ||
      m.submitted_weight < 0.0 || m.allocated_weight < 0.0) {
    return "metrics weights out of range";
  }
  if (m.delay_samples.size() != m.allocated) {
    return "metrics delay sample count must equal allocated";
  }
  for (double delay : m.delay_samples) {
    if (!FiniteValue(delay) || delay < 0.0) {
      return "metrics delay sample out of range";
    }
  }
  const RunningStat::State& rt = m.cycle_runtime;
  if (std::isnan(rt.mean) || std::isnan(rt.m2) || std::isnan(rt.min) || std::isnan(rt.max) ||
      std::isnan(rt.sum) || rt.m2 < 0.0 || (rt.count > 0 && rt.min > rt.max)) {
    return "metrics cycle-runtime accumulator inconsistent";
  }
  return "";
}

// --- Binary codec --------------------------------------------------------------------------

namespace {

// The payload bytes the checksum covers; EncodeSnapshotBinary frames them with the magic,
// format version, length and FNV-1a checksum.
std::string EncodePayload(const ClusterSnapshot& snapshot) {
  BinaryWriter payload;
  const SnapshotMeta& meta = snapshot.meta;
  payload.U64(meta.cycles_completed);
  payload.F64(meta.checkpoint_time);
  payload.F64(meta.next_cycle_time);
  payload.F64(meta.period);
  payload.I64(meta.unlock_steps);
  payload.I64(meta.fair_share_n);
  payload.U64(meta.num_shards);

  payload.F64Vec(snapshot.grid_orders);
  payload.F64(snapshot.eps_g);
  payload.F64(snapshot.delta_g);
  payload.U64(snapshot.manager_epoch);

  payload.U64(snapshot.blocks.size());
  for (const SnapshotBlockState& block : snapshot.blocks) {
    payload.I64(block.id);
    payload.F64(block.arrival_time);
    payload.F64(block.unlocked_fraction);
    payload.U64(block.version);
    payload.U8(block.retired ? 1 : 0);
    payload.U64(block.slot);
    payload.F64Vec(block.capacity);
    payload.F64Vec(block.consumed);
  }

  payload.U64(snapshot.shard_clocks.size());
  for (const SnapshotShardClock& clock : snapshot.shard_clocks) {
    payload.U64(clock.epoch);
    payload.U64(clock.version);
  }

  payload.U64(snapshot.pending.size());
  for (const SnapshotTaskState& task : snapshot.pending) {
    payload.I64(task.id);
    payload.F64(task.weight);
    payload.F64(task.arrival_time);
    payload.F64(task.timeout);
    payload.F64Vec(task.demand);
    payload.I64Vec(task.blocks);
    payload.U64(task.num_recent_blocks);
  }

  const SnapshotMetricsState& m = snapshot.metrics;
  payload.U64(m.submitted);
  payload.U64(m.allocated);
  payload.U64(m.evicted);
  payload.F64(m.submitted_weight);
  payload.F64(m.allocated_weight);
  payload.U64(m.submitted_fair_share);
  payload.U64(m.allocated_fair_share);
  payload.F64Vec(m.delay_samples);
  payload.U64(m.cycle_runtime.count);
  payload.F64(m.cycle_runtime.mean);
  payload.F64(m.cycle_runtime.m2);
  payload.F64(m.cycle_runtime.min);
  payload.F64(m.cycle_runtime.max);
  payload.F64(m.cycle_runtime.sum);
  return std::move(payload.data());
}

}  // namespace

std::string EncodeSnapshotBinary(const ClusterSnapshot& snapshot) {
  std::string payload = EncodePayload(snapshot);
  BinaryWriter out;
  out.data().append(kBinaryMagic, sizeof(kBinaryMagic));
  out.U32(kSnapshotFormatVersion);
  out.U64(payload.size());
  out.data() += payload;
  out.U64(Fnv1a64(payload));
  return std::move(out.data());
}

SnapshotParseResult DecodeSnapshotBinary(std::string_view bytes) {
  SnapshotParseResult result;
  constexpr size_t kHeaderBytes = sizeof(kBinaryMagic) + 4 + 8;
  if (bytes.size() < kHeaderBytes + 8) {
    result.error = "snapshot too short for header";
    return result;
  }
  if (std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    result.error = "bad snapshot magic";
    return result;
  }
  BinaryReader header(bytes.substr(sizeof(kBinaryMagic)));
  uint32_t version = 0;
  uint64_t payload_size = 0;
  if (!header.U32(&version, "format version") || !header.U64(&payload_size, "payload size")) {
    result.error = header.error();
    return result;
  }
  if (version != kSnapshotFormatVersion) {
    std::ostringstream os;
    os << "unsupported snapshot format version " << version << " (expected "
       << kSnapshotFormatVersion << ")";
    result.error = os.str();
    return result;
  }
  if (payload_size != bytes.size() - kHeaderBytes - 8) {
    result.error = "payload size does not match the input length";
    return result;
  }
  std::string_view payload = bytes.substr(kHeaderBytes, static_cast<size_t>(payload_size));
  BinaryReader checksum_reader(bytes.substr(kHeaderBytes + static_cast<size_t>(payload_size)));
  uint64_t stored_checksum = 0;
  if (!checksum_reader.U64(&stored_checksum, "checksum")) {
    result.error = checksum_reader.error();
    return result;
  }
  if (Fnv1a64(payload) != stored_checksum) {
    result.error = "snapshot checksum mismatch (corrupted payload)";
    return result;
  }

  BinaryReader r(payload);
  ClusterSnapshot& s = result.snapshot;
  bool ok = r.U64(&s.meta.cycles_completed, "meta.cycles_completed") &&
            r.F64(&s.meta.checkpoint_time, "meta.checkpoint_time") &&
            r.F64(&s.meta.next_cycle_time, "meta.next_cycle_time") &&
            r.F64(&s.meta.period, "meta.period") &&
            r.I64(&s.meta.unlock_steps, "meta.unlock_steps") &&
            r.I64(&s.meta.fair_share_n, "meta.fair_share_n") &&
            r.U64(&s.meta.num_shards, "meta.num_shards") &&
            r.F64Vec(&s.grid_orders, "grid_orders") && r.F64(&s.eps_g, "eps_g") &&
            r.F64(&s.delta_g, "delta_g") && r.U64(&s.manager_epoch, "manager_epoch");

  uint64_t count = 0;
  if (ok && (ok = r.Count(&count, 8 * 6 + 9, "block count"))) {
    s.blocks.resize(static_cast<size_t>(count));
    for (SnapshotBlockState& block : s.blocks) {
      uint8_t retired = 0;
      ok = r.I64(&block.id, "block.id") && r.F64(&block.arrival_time, "block.arrival_time") &&
           r.F64(&block.unlocked_fraction, "block.unlocked_fraction") &&
           r.U64(&block.version, "block.version") && r.U8(&retired, "block.retired") &&
           r.U64(&block.slot, "block.slot") && r.F64Vec(&block.capacity, "block.capacity") &&
           r.F64Vec(&block.consumed, "block.consumed");
      if (!ok) {
        break;
      }
      if (retired > 1) {
        result.error = "block.retired must be 0 or 1";
        return result;
      }
      block.retired = retired == 1;
    }
  }
  if (ok && (ok = r.Count(&count, 8 * 2, "shard clock count"))) {
    s.shard_clocks.resize(static_cast<size_t>(count));
    for (SnapshotShardClock& clock : s.shard_clocks) {
      ok = r.U64(&clock.epoch, "shard.epoch") && r.U64(&clock.version, "shard.version");
      if (!ok) {
        break;
      }
    }
  }
  if (ok && (ok = r.Count(&count, 8 * 7, "pending task count"))) {
    s.pending.resize(static_cast<size_t>(count));
    for (SnapshotTaskState& task : s.pending) {
      ok = r.I64(&task.id, "task.id") && r.F64(&task.weight, "task.weight") &&
           r.F64(&task.arrival_time, "task.arrival_time") &&
           r.F64(&task.timeout, "task.timeout") && r.F64Vec(&task.demand, "task.demand") &&
           r.I64Vec(&task.blocks, "task.blocks") &&
           r.U64(&task.num_recent_blocks, "task.num_recent_blocks");
      if (!ok) {
        break;
      }
    }
  }
  if (ok) {
    SnapshotMetricsState& m = s.metrics;
    ok = r.U64(&m.submitted, "metrics.submitted") && r.U64(&m.allocated, "metrics.allocated") &&
         r.U64(&m.evicted, "metrics.evicted") &&
         r.F64(&m.submitted_weight, "metrics.submitted_weight") &&
         r.F64(&m.allocated_weight, "metrics.allocated_weight") &&
         r.U64(&m.submitted_fair_share, "metrics.submitted_fair_share") &&
         r.U64(&m.allocated_fair_share, "metrics.allocated_fair_share") &&
         r.F64Vec(&m.delay_samples, "metrics.delay_samples") &&
         r.U64(&m.cycle_runtime.count, "metrics.cycle_runtime.count") &&
         r.F64(&m.cycle_runtime.mean, "metrics.cycle_runtime.mean") &&
         r.F64(&m.cycle_runtime.m2, "metrics.cycle_runtime.m2") &&
         r.F64(&m.cycle_runtime.min, "metrics.cycle_runtime.min") &&
         r.F64(&m.cycle_runtime.max, "metrics.cycle_runtime.max") &&
         r.F64(&m.cycle_runtime.sum, "metrics.cycle_runtime.sum");
  }
  if (!ok) {
    result.error = r.error().empty() ? "malformed snapshot payload" : r.error();
    return result;
  }
  if (r.remaining() != 0) {
    result.error = "trailing bytes after the snapshot payload";
    return result;
  }
  std::string validation = ValidateSnapshot(s);
  if (!validation.empty()) {
    result.error = "snapshot failed validation: " + validation;
    return result;
  }
  result.ok = true;
  return result;
}

// --- Restore -------------------------------------------------------------------------------

namespace {

AlphaGridPtr GridForSnapshot(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  if (grid == nullptr) {
    return AlphaGrid::Create(snapshot.grid_orders);
  }
  DPACK_CHECK_MSG(grid->orders() == snapshot.grid_orders,
                  "restore grid does not match the snapshot's orders");
  return grid;
}

}  // namespace

BlockManager RestoreBlockManager(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "RestoreBlockManager on an invalid snapshot: "
                                          << validation);
  grid = GridForSnapshot(snapshot, std::move(grid));
  std::vector<PrivacyBlock> blocks;
  blocks.reserve(snapshot.blocks.size());
  std::vector<BlockPlacement> placements;
  placements.reserve(snapshot.blocks.size());
  for (const SnapshotBlockState& state : snapshot.blocks) {
    blocks.push_back(PrivacyBlock::Restore(state.id, RdpCurve(grid, state.capacity),
                                           state.arrival_time, state.unlocked_fraction,
                                           RdpCurve(grid, state.consumed), state.version));
    placements.push_back({state.retired, state.slot});
  }
  return BlockManager::Restore(std::move(grid), snapshot.eps_g, snapshot.delta_g,
                               snapshot.manager_epoch, std::move(blocks),
                               std::move(placements));
}

std::vector<Task> RestorePendingTasks(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "RestorePendingTasks on an invalid snapshot: "
                                          << validation);
  grid = GridForSnapshot(snapshot, std::move(grid));
  std::vector<Task> pending;
  pending.reserve(snapshot.pending.size());
  for (const SnapshotTaskState& state : snapshot.pending) {
    Task task(state.id, state.weight, RdpCurve(grid, state.demand));
    task.arrival_time = state.arrival_time;
    task.timeout = state.timeout;
    task.blocks = state.blocks;
    task.num_recent_blocks = static_cast<size_t>(state.num_recent_blocks);
    pending.push_back(std::move(task));
  }
  return pending;
}

AllocationMetrics RestoreMetrics(const SnapshotMetricsState& state) {
  return AllocationMetrics::Restore(
      static_cast<size_t>(state.submitted), static_cast<size_t>(state.allocated),
      static_cast<size_t>(state.evicted), state.submitted_weight, state.allocated_weight,
      static_cast<size_t>(state.submitted_fair_share),
      static_cast<size_t>(state.allocated_fair_share), state.delay_samples,
      state.cycle_runtime);
}

}  // namespace dpack
