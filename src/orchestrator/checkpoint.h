// Checkpoint/recovery subsystem: a versioned snapshot codec for the full cluster state.
//
// The paper's PrivateKube deployment (§6.4) persists claims and privacy blocks in the
// Kubernetes API server, so the scheduler can crash and resume without violating the global
// privacy guarantee. `ClusterSnapshot` is our equivalent of that durable state: every
// privacy block's per-order consumed budget, unlock progress, arrival time, and monotonic
// version; the block manager's arrival epoch; the derived manager clock (block count,
// version sum); the pending task queue in arrival order; and the cumulative allocation
// metrics.
//
// Recovery invariant (pinned by tests/orchestrator/recovery_test.cc): restoring a snapshot
// rebuilds a byte-identical BlockManager — same epoch, same per-block versions, bit-equal
// capacity/consumed curves — and re-seeds the online driver with the captured queue and
// metrics. The scheduling engines start cold (their caches are process state, not cluster
// state), but every score is a pure function of the bit-identical snapshot state, so the
// first post-restore cycle — and every one after it — grants exactly what the uninterrupted
// run would have granted.
//
// One wire encoding, binary: fixed-width little-endian fields, doubles as raw IEEE-754 bits,
// guarded by a magic tag, a format version, a payload length, and an FNV-1a checksum.
// Truncated, bit-flipped, or wrong-version inputs are rejected with a diagnostic, never a
// crash or a silently-wrong budget. The decoder finishes with the structural validation
// (`ValidateSnapshot`) before returning.

#ifndef SRC_ORCHESTRATOR_CHECKPOINT_H_
#define SRC_ORCHESTRATOR_CHECKPOINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/stats.h"
#include "src/core/metrics.h"
#include "src/core/task.h"
#include "src/rdp/alpha_grid.h"

namespace dpack {

// Bump on any schema change; the decoder rejects other versions.
// v2: per-block slab placement (retired tier + dense slot), added with block retirement.
// v3: meta.async dropped with the async engine (num_shards is the only engine shape).
// v4: meta.num_shards and the per-shard clocks dropped with the sharded engine; one
//     manager clock replaces them.
// v5: the per-block slab placement (v2) dropped with block retirement; the manager holds
//     every block in one vector indexed by id.
inline constexpr uint32_t kSnapshotFormatVersion = 5;

// One privacy block's durable state. `capacity` / `consumed` are per-order epsilons on the
// snapshot's grid.
struct SnapshotBlockState {
  BlockId id = 0;
  double arrival_time = 0.0;
  double unlocked_fraction = 1.0;
  uint64_t version = 0;
  std::vector<double> capacity;
  std::vector<double> consumed;
};

// One pending task, exactly as queued (arrival order is the vector order).
struct SnapshotTaskState {
  TaskId id = 0;
  double weight = 1.0;
  double arrival_time = 0.0;
  double timeout = 0.0;  // +inf = never evicted, as in Task.
  std::vector<double> demand;
  std::vector<BlockId> blocks;
  uint64_t num_recent_blocks = 0;
};

// The block manager's derived clock: its block count and the sum of its block versions.
// Recomputable from the block states; stored as a fault-detection value, so the decoder
// cross-checks the two and rejects snapshots whose block versions disagree with the clock
// even though the checksum holds (e.g. a buggy or hand-built encoder).
struct SnapshotManagerClock {
  uint64_t block_count = 0;
  uint64_t version_sum = 0;
};

// Cumulative AllocationMetrics state. Delays are the raw sample vector; the cycle-runtime
// accumulator is captured field-exact (Welford state is order-sensitive).
struct SnapshotMetricsState {
  uint64_t submitted = 0;
  uint64_t allocated = 0;
  uint64_t evicted = 0;
  double submitted_weight = 0.0;
  double allocated_weight = 0.0;
  uint64_t submitted_fair_share = 0;
  uint64_t allocated_fair_share = 0;
  std::vector<double> delay_samples;
  RunningStat::State cycle_runtime;
};

// Where in the run the snapshot was taken, plus the scheduling configuration the state is
// only meaningful under (validated against the resuming run's config).
struct SnapshotMeta {
  uint64_t cycles_completed = 0;   // Scheduling cycles fully executed before the capture.
  double checkpoint_time = 0.0;    // Virtual time of the capture; arrivals <= this are in.
  double next_cycle_time = 0.0;    // Exact instant of the first cycle still to run.
  double period = 1.0;
  int64_t unlock_steps = 1;
  int64_t fair_share_n = 0;
};

struct ClusterSnapshot {
  SnapshotMeta meta;
  // Block-manager identity: the alpha grid and the global guarantee blocks derive from.
  std::vector<double> grid_orders;
  double eps_g = 0.0;
  double delta_g = 0.0;
  uint64_t manager_epoch = 0;
  std::vector<SnapshotBlockState> blocks;
  SnapshotManagerClock manager_clock;
  std::vector<SnapshotTaskState> pending;
  SnapshotMetricsState metrics;
};

// Result of decoding: on failure `ok` is false and `error` names the offending field or
// corruption; `snapshot` is only meaningful when `ok`.
struct SnapshotParseResult {
  bool ok = false;
  std::string error;
  ClusterSnapshot snapshot;
};

// --- Capture ------------------------------------------------------------------------------

// Snapshots the cluster state: `blocks` (all block state + epoch + grid + guarantee),
// `pending` (the online driver's queue, in order), `metrics`, and `meta`. The manager clock
// is derived from the block states.
ClusterSnapshot CaptureSnapshot(const BlockManager& blocks, std::span<const Task> pending,
                                const AllocationMetrics& metrics, const SnapshotMeta& meta);

// --- Codec --------------------------------------------------------------------------------

std::string EncodeSnapshotBinary(const ClusterSnapshot& snapshot);
SnapshotParseResult DecodeSnapshotBinary(std::string_view bytes);

// Structural validation run by the decoder: dense ordered block ids, curve sizes matching
// the grid, fractions in range, no NaNs where semantics forbid them, every block's
// capacity within BlockCapacityCurve(grid, eps_g, delta_g) and its consumption within
// capacity at some usable order (both by WithinCapacity, the admission rule in
// privacy_block.h), the manager clock consistent with the block states, metrics internally
// consistent. Returns "" when valid, else a diagnostic. Public so hand-built snapshots
// (tests, tools) can be checked too.
std::string ValidateSnapshot(const ClusterSnapshot& snapshot);

// --- Restore ------------------------------------------------------------------------------

// Rebuilds the byte-identical block manager. `grid` must match the snapshot's orders; pass
// nullptr to create a grid from them. The snapshot must have passed ValidateSnapshot
// (the decoder guarantees this; DPACK_CHECKs back the contract for hand-built snapshots).
BlockManager RestoreBlockManager(const ClusterSnapshot& snapshot, AlphaGridPtr grid = nullptr);

// Rebuilds the pending queue on `grid` (same contract as RestoreBlockManager).
std::vector<Task> RestorePendingTasks(const ClusterSnapshot& snapshot,
                                      AlphaGridPtr grid = nullptr);

// Rebuilds the cumulative metrics accumulator.
AllocationMetrics RestoreMetrics(const SnapshotMetricsState& state);

}  // namespace dpack

#endif  // SRC_ORCHESTRATOR_CHECKPOINT_H_
