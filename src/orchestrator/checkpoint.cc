#include "src/orchestrator/checkpoint.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/block/privacy_block.h"
#include "src/common/check.h"
#include "src/common/wire.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {

namespace {

constexpr char kBinaryMagic[8] = {'D', 'P', 'C', 'K', 'S', 'N', 'A', 'P'};

bool NotNan(double v) { return !std::isnan(v); }
bool FiniteValue(double v) { return std::isfinite(v); }

}  // namespace

// --- Capture -------------------------------------------------------------------------------

ClusterSnapshot CaptureSnapshot(const BlockManager& blocks, std::span<const Task> pending,
                                const AllocationMetrics& metrics, const SnapshotMeta& meta) {
  ClusterSnapshot snapshot;
  snapshot.meta = meta;
  snapshot.grid_orders = blocks.grid()->orders();
  snapshot.eps_g = blocks.eps_g();
  snapshot.delta_g = blocks.delta_g();
  snapshot.manager_epoch = blocks.epoch();

  snapshot.blocks.reserve(blocks.block_count());
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    const PrivacyBlock& block = blocks.block(static_cast<BlockId>(j));
    SnapshotBlockState state;
    state.id = block.id();
    state.arrival_time = block.arrival_time();
    state.unlocked_fraction = block.unlocked_fraction();
    state.version = block.version();
    state.capacity = block.capacity().epsilons();
    state.consumed = block.consumed().epsilons();
    snapshot.blocks.push_back(std::move(state));
    snapshot.manager_clock.block_count += 1;
    snapshot.manager_clock.version_sum += block.version();
  }

  snapshot.pending.reserve(pending.size());
  for (const Task& task : pending) {
    snapshot.pending.push_back(RecordOf(task));
  }
  snapshot.metrics = metrics.state();
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
  }

  uint64_t version_sum = 0;
  for (const SnapshotBlockState& block : snapshot.blocks) {
    version_sum += block.version;
  }
  if (snapshot.manager_clock.block_count != snapshot.blocks.size() ||
      snapshot.manager_clock.version_sum != version_sum) {
    return "manager clock inconsistent with block states";
  }

  for (const TaskRecord& task : snapshot.pending) {
    std::string error = ValidateTaskRecord(task, orders, snapshot.blocks.size());
    if (!error.empty()) {
      return "pending task " + std::to_string(task.id) + ": " + error;
    }
    if (task.arrival_time > meta.checkpoint_time) {
      return "pending task arrived after the checkpoint";
    }
  }

  const AllocationMetrics::State& m = snapshot.metrics;
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

// The payload's one field list, walked by BinaryWriter (encode) and BinaryReader (decode);
// EncodeSnapshotBinary frames the payload with the magic, format version, length and FNV-1a
// checksum. Each `S` is a snapshot part, const when encoding.
template <class Io, class S>
bool BlockFields(Io& io, S& block) {
  return io.Field(block.id, "block.id") && io.Field(block.arrival_time, "block.arrival_time") &&
         io.Field(block.unlocked_fraction, "block.unlocked_fraction") &&
         io.Field(block.version, "block.version") &&
         io.Field(block.capacity, "block.capacity") && io.Field(block.consumed, "block.consumed");
}

template <class Io, class S>
bool TaskFields(Io& io, S& task) {
  return io.Field(task.id, "task.id") && io.Field(task.weight, "task.weight") &&
         io.Field(task.arrival_time, "task.arrival_time") &&
         io.Field(task.timeout, "task.timeout") && io.Field(task.demand, "task.demand") &&
         io.Field(task.blocks, "task.blocks") &&
         io.Field(task.num_recent_blocks, "task.num_recent_blocks");
}

template <class Io, class S>
bool SnapshotFields(Io& io, S& s) {
  auto& meta = s.meta;
  auto& m = s.metrics;
  auto& rt = m.cycle_runtime;
  return io.Field(meta.cycles_completed, "meta.cycles_completed") &&
         io.Field(meta.checkpoint_time, "meta.checkpoint_time") &&
         io.Field(meta.next_cycle_time, "meta.next_cycle_time") &&
         io.Field(meta.period, "meta.period") &&
         io.Field(meta.unlock_steps, "meta.unlock_steps") &&
         io.Field(meta.fair_share_n, "meta.fair_share_n") &&
         io.Field(s.grid_orders, "grid_orders") && io.Field(s.eps_g, "eps_g") &&
         io.Field(s.delta_g, "delta_g") && io.Field(s.manager_epoch, "manager_epoch") &&
         io.Records(s.blocks, 8 * 6, "block count",
                    [&](auto& block) { return BlockFields(io, block); }) &&
         io.Field(s.manager_clock.block_count, "manager_clock.block_count") &&
         io.Field(s.manager_clock.version_sum, "manager_clock.version_sum") &&
         io.Records(s.pending, 8 * 7, "pending task count",
                    [&](auto& task) { return TaskFields(io, task); }) &&
         io.Field(m.submitted, "metrics.submitted") &&
         io.Field(m.allocated, "metrics.allocated") && io.Field(m.evicted, "metrics.evicted") &&
         io.Field(m.submitted_weight, "metrics.submitted_weight") &&
         io.Field(m.allocated_weight, "metrics.allocated_weight") &&
         io.Field(m.submitted_fair_share, "metrics.submitted_fair_share") &&
         io.Field(m.allocated_fair_share, "metrics.allocated_fair_share") &&
         io.Field(m.delay_samples, "metrics.delay_samples") &&
         io.Field(rt.count, "metrics.cycle_runtime.count") &&
         io.Field(rt.mean, "metrics.cycle_runtime.mean") &&
         io.Field(rt.m2, "metrics.cycle_runtime.m2") &&
         io.Field(rt.min, "metrics.cycle_runtime.min") &&
         io.Field(rt.max, "metrics.cycle_runtime.max") &&
         io.Field(rt.sum, "metrics.cycle_runtime.sum");
}

}  // namespace

std::string EncodeSnapshotBinary(const ClusterSnapshot& snapshot) {
  BinaryWriter writer;
  SnapshotFields(writer, snapshot);
  const std::string& payload = writer.data();
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
  bool ok = SnapshotFields(r, s);
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
  for (const SnapshotBlockState& state : snapshot.blocks) {
    blocks.push_back(PrivacyBlock::Restore(state.id, RdpCurve(grid, state.capacity),
                                           state.arrival_time, state.unlocked_fraction,
                                           RdpCurve(grid, state.consumed), state.version));
  }
  return BlockManager::Restore(std::move(grid), snapshot.eps_g, snapshot.delta_g,
                               snapshot.manager_epoch, std::move(blocks));
}

std::vector<Task> RestorePendingTasks(const ClusterSnapshot& snapshot, AlphaGridPtr grid) {
  std::string validation = ValidateSnapshot(snapshot);
  DPACK_CHECK_MSG(validation.empty(), "RestorePendingTasks on an invalid snapshot: "
                                          << validation);
  grid = GridForSnapshot(snapshot, std::move(grid));
  std::vector<Task> pending;
  pending.reserve(snapshot.pending.size());
  for (const TaskRecord& record : snapshot.pending) {
    pending.push_back(TaskOf(record, grid));
  }
  return pending;
}

}  // namespace dpack
