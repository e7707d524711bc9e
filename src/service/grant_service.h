// The grant-request API of the service: one facade owning the online driver over the
// incremental engine (OnlineScheduler over a GreedyScheduler), fronted by admission control
// with a bounded queue.
//
// This is the long-running deployment shape (the paper's PrivateKube scheduler runs as a
// control-plane service): clients Submit grant requests and the daemon runs a scheduling
// cycle per period, scoring in process on its one thread. The socket edge
// (src/service/net_transport.h) puts remote tenants in front of it. Backpressure is
// explicit: when the pending queue is at capacity, Submit refuses (the caller sheds or
// retries) instead of queueing unboundedly; rejections are counted, never silently dropped.

#ifndef SRC_SERVICE_GRANT_SERVICE_H_
#define SRC_SERVICE_GRANT_SERVICE_H_

#include <utility>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/service/transport.h"
#include "src/sim/sim_driver.h"

namespace dpack {

struct GrantServiceConfig {
  double eta = 0.05;  // DPack approximation parameter (kDpack only).
  // Pending-queue bound for admission control; 0 = unbounded (tests and differential runs
  // that must absorb every submission).
  size_t admission_queue_capacity = 0;
  double period = 1.0;
  int64_t unlock_steps = 50;
  int64_t fair_share_n = 0;
};

// The online-driver knobs RunOnlineSimulation derives from `sim`, so a service replaying
// the same workload grants what the in-process run grants.
GrantServiceConfig GrantServiceConfigFor(const SimConfig& sim);

// A workload's block arrivals, fed to a service's BlockManager request by request: every
// block arriving at or before a request's instant is added before the request acts — the
// sim driver's blocks-then-tasks-then-cycle order at equal instants.
class BlockArrivalFeed {
 public:
  explicit BlockArrivalFeed(const SimConfig& sim) : times_(BlockArrivalSchedule(sim)) {}

  // Adds every block arriving at or before `now`; returns how many were added.
  size_t AdvanceTo(double now, BlockManager& blocks);
  size_t arrived() const { return next_; }

 private:
  std::vector<double> times_;
  size_t next_ = 0;
};

class GrantService {
 public:
  // `blocks` must outlive the service.
  GrantService(GreedyMetric metric, BlockManager* blocks, GrantServiceConfig config);

  // Admission-controlled submission: false when the queue is at capacity (counted in
  // counters().admission_rejects; the task is absorbed nowhere).
  bool Submit(Task task) { return online_.Submit(std::move(task)); }

  // One scheduling cycle at virtual time `now`; returns the number of grants.
  size_t RunCycle(double now) { return online_.RunCycle(now); }

  size_t pending_count() const { return online_.pending_count(); }
  const std::vector<TaskId>& last_granted() const { return online_.last_granted(); }
  const AllocationMetrics& metrics() const { return online_.metrics(); }

  // admission_rejects; the fleet fields read zero (src/service/transport.h).
  ServiceCounters counters() const;

  // Kept only for the frozen end-to-end benchmark (bench/e2e), which calls
  // scheduler().Shutdown() to reap a worker fleet; there is none, so both do nothing. The
  // next change to that benchmark should delete them.
  GrantService& scheduler() { return *this; }
  void Shutdown() {}

 private:
  OnlineScheduler online_;
};

}  // namespace dpack

#endif  // SRC_SERVICE_GRANT_SERVICE_H_
