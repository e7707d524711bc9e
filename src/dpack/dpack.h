// Umbrella header: the full public API of the dpack library.
//
// Link against the CMake target `dpack::dpack` and include this header to use the scheduler,
// RDP accounting, workload generators, simulator, and orchestrator.
//
// Scheduling engine architecture
// ------------------------------
// Batch scheduling runs on one incremental engine, `ShardedScheduleContext`
// (src/core/sharded_schedule_context.h), layered over versioned block state:
//
//   - `PrivacyBlock::version()` is a monotonic counter bumped on every state change that
//     can alter the block's available capacity: each `Commit` and each effective unlock
//     increase. Invariant: equal versions observed at two points in time imply bit-identical
//     `AvailableCurve()` results.
//   - `BlockManager::epoch()` is a monotonic counter bumped on every block arrival.
//     Invariant: unchanged epoch plus unchanged per-block versions imply the manager's
//     whole capacity state is bit-identical. `Clone()` preserves both, so observations made
//     against the original remain valid against the clone.
//   - The engine (owned by `GreedyScheduler`, persistent across cycles inside
//     `OnlineScheduler`, the sim driver, and the orchestrator) uses those counters to
//     detect exactly which blocks changed between scheduling cycles, rescoring only the
//     tasks that touch them, keeping scored entries in lazily-revalidated heaps, and
//     skipping CANRUN filter scans for tasks whose blocks provably did not change since
//     their last rejection. Grants are identical to the recompute-from-scratch reference
//     path (`RecomputeScheduleBatch`), which remains available via
//     `GreedySchedulerOptions::incremental = false` and is pinned against the engine by
//     tests/core/incremental_equivalence_test.cc.
//   - Shards (`GreedySchedulerOptions::num_shards`, default 1, the library's one
//     shard-count knob; drivers run whatever engine shape their scheduler was built with):
//     block g belongs to shard g mod N and task t to shard t.id mod N. Each shard owns its
//     blocks' refreshes and best-alpha solves and its tasks' score cache and heap, and the
//     refresh and rescoring phases run on a worker pool of N - 1 threads plus the caller
//     (none at one shard). The deterministic merge rule: every score is computed by the
//     same function on bit-identical snapshot state, and the per-shard heaps are combined
//     by an N-way merge under the strict total order (score desc, arrival asc, id asc), so
//     the grant sequence is byte-identical for every shard count and thread timing. The
//     CANRUN allocation walk stays sequential (its commits are order-dependent).
//
// Consumers adding new block mutations must route them through `Commit` /
// `SetUnlockedFraction` / `AddBlock*` (or bump the counters equivalently); a mutation that
// bypasses the version counters silently breaks the incremental engine.

#ifndef SRC_DPACK_DPACK_H_
#define SRC_DPACK_DPACK_H_

#include "src/block/block_manager.h"
#include "src/block/privacy_block.h"
#include "src/common/csv.h"
#include "src/common/distributions.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/compute_aware.h"
#include "src/core/efficiency.h"
#include "src/core/fairness.h"
#include "src/core/metrics.h"
#include "src/core/online_scheduler.h"
#include "src/core/schedule_context.h"
#include "src/core/scheduler.h"
#include "src/core/sharded_schedule_context.h"
#include "src/core/task.h"
#include "src/knapsack/privacy_knapsack.h"
#include "src/knapsack/single_dim.h"
#include "src/orchestrator/cluster_orchestrator.h"
#include "src/orchestrator/state_store.h"
#include "src/rdp/accountant.h"
#include "src/rdp/alpha_grid.h"
#include "src/rdp/mechanisms.h"
#include "src/rdp/rdp_curve.h"
#include "src/service/client.h"
#include "src/service/grant_service.h"
#include "src/service/net_transport.h"
#include "src/service/service_scheduler.h"
#include "src/sim/service_sim.h"
#include "src/sim/sim_driver.h"
#include "src/sim/simulation.h"
#include "src/workload/alibaba.h"
#include "src/workload/amazon.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_io.h"
#include "src/workload/workload_stats.h"

#endif  // SRC_DPACK_DPACK_H_
