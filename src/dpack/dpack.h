// Umbrella header: the full public API of the dpack library.
//
// Link against the CMake target `dpack::dpack` and include this header to use the scheduler,
// RDP accounting, workload generators, simulator, and orchestrator.
//
// Batch scheduling runs on one single-threaded incremental engine; its design, and the
// block version counters every block mutation must bump, are described in
// src/core/incremental_engine.h.

#ifndef SRC_DPACK_DPACK_H_
#define SRC_DPACK_DPACK_H_

#include "src/block/block_manager.h"
#include "src/block/privacy_block.h"
#include "src/common/csv.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/efficiency.h"
#include "src/core/fairness.h"
#include "src/core/incremental_engine.h"
#include "src/core/metrics.h"
#include "src/core/online_scheduler.h"
#include "src/core/schedule_context.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"
#include "src/knapsack/privacy_knapsack.h"
#include "src/knapsack/single_dim.h"
#include "src/orchestrator/cluster_orchestrator.h"
#include "src/orchestrator/state_store.h"
#include "src/rdp/alpha_grid.h"
#include "src/rdp/mechanisms.h"
#include "src/rdp/rdp_curve.h"
#include "src/service/client.h"
#include "src/service/grant_service.h"
#include "src/service/net_transport.h"
#include "src/sim/sim_driver.h"
#include "src/workload/alibaba.h"
#include "src/workload/amazon.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_io.h"
#include "src/workload/workload_stats.h"

#endif  // SRC_DPACK_DPACK_H_
