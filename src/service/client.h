// The tenant side of the grant service's socket edge (src/service/net_transport.h): a
// strict request/reply client speaking checksum-framed ServiceMessages, plus the workload
// driver that replays the sim driver's exact event order against a service — over the wire
// through the client, or in process.
//
// Blocking waits follow the service discipline — iteration budgets, no clock reads. A send
// or a reply wait ppolls the socket, so it ends when the bytes can move. The first wait for
// each reply spins before it blocks (WaitForFds, src/common/sleep.h): the daemon answers a
// request within microseconds, and the spin picks the reply up without a sleep and a
// wake-up; later reply waits and every send wait block at once. Each wait lasts at most the
// spin window plus poll_sleep_us: io_budget waits are at most
// io_budget * (spin window + poll_sleep_us). Only Connect's retry, which has no socket to
// wait on yet, sleeps (SleepFullMicros, so EINTR never shortens it). Every failure path
// (daemon gone, corrupt reply, budget exhausted, reply out of sequence) returns false with
// a diagnostic; the client never spins forever on a dead daemon.

#ifndef SRC_SERVICE_CLIENT_H_
#define SRC_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/task.h"
#include "src/service/messages.h"
#include "src/service/net_transport.h"
#include "src/sim/sim_driver.h"

namespace dpack {

struct NetClientConfig {
  size_t max_frame_bytes = 1 << 20;   // Replies beyond this are corruption, not patience.
  // Longest blocking wait, microseconds: a socket wait ends when the socket is ready or
  // after this long (behind at most one spin window); a connect retry sleeps this long.
  unsigned int poll_sleep_us = 200;
  // Wait iterations for connect / a send / a reply before giving up. At the default this is
  // up to tens of seconds of daemon silence — a dead daemon, not a slow one.
  uint64_t io_budget = 100000;
};

// The two requests a workload replay makes of a grant service, at virtual-time instants.
// ServiceClient makes them over the socket edge; LocalServiceFront, in process.
class WorkloadFront {
 public:
  // Submits a batch of tasks arriving at instant `now`; reports the admission split
  // (accepted + rejected == tasks.size()).
  virtual bool Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
                      uint64_t* rejected, std::string* error) = 0;

  // Runs one scheduling cycle at instant `now`; *granted receives the grant order.
  virtual bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error) = 0;

 protected:
  ~WorkloadFront() = default;  // Fronts are never deleted through this interface.
};

class ServiceClient final : public WorkloadFront {
 public:
  explicit ServiceClient(NetClientConfig config = {});
  ~ServiceClient();

  // Connects to "unix:<path>" / "tcp:<port>" (loopback), retrying on connection-refused
  // within the io budget so a client raced against daemon startup still binds.
  bool Connect(const std::string& address, std::string* error);

  // WorkloadFront over the socket: each call is one request/reply with the daemon.
  bool Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
              uint64_t* rejected, std::string* error) override;
  bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error) override;

  // Asks the daemon to stop serving (fire and forget: the frame is flushed, there is no
  // reply).
  bool SendShutdown(std::string* error);

  void Close();
  bool connected() const { return socket_ != nullptr && !socket_->dead(); }
  const NetCounters& counters() const { return counters_; }

 private:
  bool SendRequest(const ServiceMessage& message, std::string* error);
  // One wait on the connected socket for `events`: a spin first with `spin`, then a ppoll
  // for at most poll_sleep_us.
  void WaitForSocket(short events, bool spin);
  // Waits (budgeted) for the next frame and decodes it. Any transport damage is terminal.
  bool ReceiveReply(ServiceMessage* out, std::string* error);

  NetClientConfig config_;
  std::unique_ptr<FrameSocket> socket_;
  NetCounters counters_;
  uint64_t next_seq_ = 1;
};

// What a replayed workload run produced; grant_trace is the byte-comparable signal to diff
// against an in-process RunOnlineSimulation of the same workload and config.
struct ReplayResult {
  std::vector<std::vector<TaskId>> grant_trace;
  size_t cycles_run = 0;
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // Admission-bound refusals observed by the replay.
};

// Replays RunOnlineSimulation's run against `front` through the same WalkSchedule: the same
// cycle instants (CycleInstants over the same horizon), with each run of equal arrivals
// submitted as one batch, in workload order, before the first cycle at or after it. The
// service applies its block schedule up to each instant first, so grants come out
// byte-identical to the in-process run. Tasks arriving after the final cycle are still
// submitted (they affect pending counts, never grants).
bool ReplayWorkload(WorkloadFront& front, std::vector<Task> tasks, const SimConfig& config,
                    ReplayResult* result, std::string* error);

// A GrantService answering replay requests in process: each request first feeds the
// workload's block arrivals up to its instant, exactly as the socket daemon's advance hook
// does, so an in-process replay grants what a remote one does.
class LocalServiceFront final : public WorkloadFront {
 public:
  // `service` and `blocks` (the manager it schedules against) must outlive the front.
  LocalServiceFront(GrantService* service, BlockManager* blocks, const SimConfig& sim)
      : service_(service), blocks_(blocks), feed_(sim) {}

  bool Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
              uint64_t* rejected, std::string* error) override;
  bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error) override;

 private:
  GrantService* service_;
  BlockManager* blocks_;
  BlockArrivalFeed feed_;
};

}  // namespace dpack

#endif  // SRC_SERVICE_CLIENT_H_
