// Process transport for the multi-process grant service: the daemon owns one shared-memory
// region per worker slot — [control block][daemon→worker ring][worker→daemon ring] — maps
// every region while still single-threaded, then forks the workers so each child inherits
// the mappings at the same addresses (src/common/subprocess.h explains why fork-without-exec
// is safe here).
//
// Waits end on arrival. Each ring has a Doorbell (src/common/doorbell.h): the daemon rings a
// worker's inbound bell after pushing to it, and every worker rings one fleet-wide reply
// bell after pushing toward the daemon. A waiter re-checks its ring and then sleeps on the
// bell, so a message wakes it within a futex round trip instead of at the next poll.
//
// The daemon side (ServiceTransport) tracks liveness two ways: waitpid for death (a killed
// worker) and the shared heartbeat counter for hangs (a stopped or wedged worker whose pid
// is still live). Both are driven by *iteration budgets*, not wall-clock deadlines — the
// scheduling path stays free of clock reads (scripts/dpack_lint.py nondeterministic-source).
// Every wait lasts at most poll_sleep_us, so a stall budget of N waits is a deadline of at
// most N * poll_sleep_us.
//
// Crash isolation contract: a worker may die (SIGKILL) at any instant. The rings only ever
// expose complete checksummed frames (src/common/shm_ring.h), Send() to a dead worker
// returns false instead of wedging, and a dead worker's rings may be re-initialized by the
// daemon (ResetRings) because the daemon then owns both ends. The scheduler layer on top
// (src/service/service_scheduler.h) turns these primitives into byte-identical recovery.

#ifndef SRC_SERVICE_TRANSPORT_H_
#define SRC_SERVICE_TRANSPORT_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/shm_ring.h"
#include "src/common/subprocess.h"
#include "src/service/messages.h"

namespace dpack {

// Deterministic transport/service counters: pure functions of the workload and the injected
// fault schedule, never of wall time — asserted exactly by tests and gated as bench metrics
// (bench/baseline.json). Stalls are loop iterations, not durations.
struct ServiceCounters {
  uint64_t messages_sent = 0;      // Frames the daemon pushed (to all workers).
  uint64_t messages_received = 0;  // Frames the daemon popped.
  uint64_t bytes_sent = 0;         // Payload bytes pushed by the daemon.
  uint64_t bytes_received = 0;     // Payload bytes popped by the daemon.
  uint64_t ring_stalls = 0;        // Full-ring waits observed while sending.
  uint64_t score_rounds = 0;       // Distributed scoring rounds completed.
  uint64_t recoveries = 0;         // Worker deaths detected and recovered from.
  uint64_t respawns = 0;           // Replacement workers forked (kRespawn policy).
  uint64_t state_replays = 0;      // Snapshot (State) messages sent to cold workers.
  uint64_t admission_rejects = 0;  // Submissions refused by the admission bound.
};

struct TransportConfig {
  size_t num_workers = 2;
  // Bytes per ring direction (two rings per worker). One megabyte holds any test-sized
  // refresh batch; a full ring is a counted stall, not an error.
  size_t ring_bytes = 1 << 20;
  // Longest single wait, microseconds: an empty-ring wait ends when its bell rings or after
  // this long, and a full-ring back-off sleeps this long. An idle worker therefore still
  // wakes (and beats its heartbeat) this often. Iteration counts, not elapsed time, bound
  // every wait: a budget of N is at most N * poll_sleep_us.
  unsigned int poll_sleep_us = 50;
  // Wait iterations a blocking daemon-side wait may spend without worker progress before
  // declaring the peer hung.
  uint64_t stall_budget = 40000;
};

// The child-process side of one worker slot: pops daemon→worker frames, pushes
// worker→daemon frames (ringing the fleet's reply bell), bumps the shared heartbeat on every
// wait iteration so the daemon can tell a hung worker from a merely idle one. Constructed
// inside the forked child by ServiceTransport; user code receives it through the WorkerBody
// callback.
class WorkerEndpoint {
 public:
  WorkerEndpoint(size_t index, WorkerControlBlock* control, ShmRing in, ShmRing out,
                 Doorbell* replies, pid_t daemon_pid, unsigned int poll_sleep_us);

  size_t index() const { return index_; }

  // Blocks until one message arrives from the daemon and decodes it. Each wait iteration
  // bumps the heartbeat, re-checks the ring and sleeps on the inbound bell for at most
  // poll_sleep_us. Returns false on ring corruption or an undecodable frame — the worker
  // should exit nonzero; the daemon sees the death and recovers. If the daemon itself dies
  // (the worker is reparented), the next iteration notices and false is returned instead
  // of waiting orphaned forever.
  bool Receive(ServiceMessage* out);

  // Pushes one message toward the daemon and rings the reply bell, sleeping poll_sleep_us
  // per try while the ring is full. Returns false only on the orphaned-daemon condition
  // above.
  bool Send(const ServiceMessage& message);

  // Publishes the worker's lifecycle state (kReady after Bind, kExited before a clean exit).
  void SetLifeState(WorkerLifeState state);

 private:
  bool DaemonGone() const;

  size_t index_;
  WorkerControlBlock* control_;
  ShmRing in_;   // Daemon → worker; this side pops.
  ShmRing out_;  // Worker → daemon; this side pushes.
  Doorbell* replies_;
  pid_t daemon_pid_;
  unsigned int poll_sleep_us_;
};

// What a worker process runs; its return value becomes the child's exit status.
using WorkerBody = std::function<int(WorkerEndpoint&)>;

// Daemon-side owner of the worker fleet: regions, rings, pids, liveness bookkeeping, and
// the transport counters. Not thread-safe — the daemon drives it from its single
// scheduling thread (which is also what makes fork-without-exec sound).
class ServiceTransport {
 public:
  ServiceTransport(TransportConfig config, WorkerBody body);
  // Kills (SIGKILL) and reaps any still-live worker. Prefer an explicit ShutdownAll() for
  // clean exits; the destructor is the crash-path backstop.
  ~ServiceTransport();

  ServiceTransport(const ServiceTransport&) = delete;
  ServiceTransport& operator=(const ServiceTransport&) = delete;

  // Maps all regions (the reply bell's included), initializes rings and control blocks,
  // forks every worker. Call once, from a single-threaded process.
  void Start();
  bool started() const { return started_; }

  size_t num_workers() const { return config_.num_workers; }
  // Liveness as last observed (Poll/Kill/ShutdownAll update it); a worker that died since
  // the last Poll still reads true here.
  bool alive(size_t w) const;
  pid_t pid(size_t w) const;
  uint64_t heartbeat(size_t w) const;
  WorkerLifeState life_state(size_t w) const;

  // Blocking push of one encoded frame to worker w's inbound ring, then a ring of its
  // inbound bell. A full ring is retried every poll_sleep_us (counting ring_stalls) until
  // space frees, the worker is found dead (returns false), or the stall budget is exhausted
  // (DPACK_CHECK failure: a live, bound worker that stops draining its ring for budget *
  // poll_sleep_us is a bug, not backpressure). A broadcast encodes once and sends the same
  // frame to every worker.
  bool SendFrame(size_t w, const EncodedFrame& frame);

  // Encodes `message` and sends it through SendFrame.
  bool Send(size_t w, const ServiceMessage& message) {
    return SendFrame(w, EncodedFrame(EncodeMessage(message)));
  }

  // Non-blocking pop from worker w's outbound ring. kOk decodes into *out (an undecodable
  // frame reports kCorrupt with *error set); kEmpty/kCorrupt leave *out untouched.
  RingPopStatus TryReceive(size_t w, ServiceMessage* out, std::string* error);

  // Waiting for any worker's next message: `seen = ArmReplies()`, scan the rings with
  // TryReceive, and only if they were all empty WaitForReplies(seen). The wait ends when a
  // worker pushes after the Arm, or after at most poll_sleep_us.
  uint32_t ArmReplies() const { return reply_bell_->Arm(); }
  void WaitForReplies(uint32_t seen) { reply_bell_->Wait(seen, config_.poll_sleep_us); }

  // Re-checks worker w's process state via waitpid. A terminal result (exit or signal)
  // reaps the child and marks the slot dead; safe to call repeatedly afterwards.
  ChildState Poll(size_t w);

  // Sends `signal` to worker w, then reaps it and marks the slot dead. The fault-injection
  // path (service_scheduler's kill hook) instead signals pid(w) directly and lets the
  // normal Poll-based detection find the corpse — that is the code path being proven.
  void Kill(size_t w, int signal);

  // Re-initializes both rings and the control block of a DEAD worker slot (DPACK_CHECKs
  // liveness): with the child gone the daemon owns both ring ends, so stale in-flight
  // frames — which a respawned worker must never double-apply — are discarded wholesale.
  void ResetRings(size_t w);

  // Forks a replacement worker into a dead, ring-reset slot. The new child starts cold
  // (kStarting, heartbeat 0) and must be re-bound and re-fed state by the scheduler layer.
  void Respawn(size_t w);

  // Clean shutdown: Shutdown message to every live worker, a budgeted wait for voluntary
  // exits (each wait ends as soon as the worker exits), SIGKILL for stragglers, and a reap
  // of everything. Idempotent.
  void ShutdownAll();

  ServiceCounters& counters() { return counters_; }
  const ServiceCounters& counters() const { return counters_; }
  const TransportConfig& config() const { return config_; }

 private:
  struct Slot {
    ShmRegion region;
    WorkerControlBlock* control = nullptr;
    // Daemon-side ring handles (the child constructs its own over the same memory).
    std::unique_ptr<ShmRing> to_worker;    // Daemon pushes.
    std::unique_ptr<ShmRing> from_worker;  // Daemon pops.
    pid_t pid = -1;
    bool alive = false;
  };

  void InitSlotMemory(Slot& slot);
  void ForkWorker(size_t w);

  TransportConfig config_;
  WorkerBody body_;
  std::vector<Slot> slots_;
  ShmRegion bell_region_;  // Holds the reply bell; mapped before the first fork.
  Doorbell* reply_bell_ = nullptr;
  ServiceCounters counters_;
  bool started_ = false;
};

}  // namespace dpack

#endif  // SRC_SERVICE_TRANSPORT_H_
