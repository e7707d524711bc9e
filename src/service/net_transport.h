// The socket front of the grant service: remote tenants Submit grant requests and drive
// scheduling cycles over a Unix-domain or loopback-TCP stream, speaking the versioned
// ServiceMessage schema (src/service/messages.h) inside checksummed frames —
// [u64 length][u64 FNV-1a][payload] (src/common/frame.h) — reassembled from the byte stream.
//
// The daemon side is a single-threaded, event-driven accept loop: one PollOnce() step
// accepts pending connections, drains readable bytes, dispatches complete frames into the
// GrantService, and flushes reply bytes, all on nonblocking sockets — no new threads, no
// mutexes, and no clock reads anywhere near the scheduling path. Between steps with nothing
// to do, ServeUntilShutdown waits in ppoll over the listener and every connection, so a
// request is handled when its bytes arrive. The first idle wait after a step that took in a
// request spins before it blocks (WaitForFds, src/common/sleep.h): a tenant in a closed
// loop sends its next request within microseconds of reading the reply, and the spin
// catches it without a sleep and a wake-up. Every other wait (before the first request, on
// later idle steps, in the final flush) blocks at once, so an idle daemon costs nothing
// extra. Liveness is iteration budgets: every wait lasts at most the spin window plus
// poll_sleep_us, and a connection that holds a partial frame or an unflushed reply without
// making progress for `progress_budget` consecutive polls is disconnected.
//
// Clients are never trusted (the self-stabilizing stance: correctness must survive
// arbitrarily misbehaving peers):
//   - a frame length beyond max_frame_bytes is rejected the instant the header arrives,
//     never awaited;
//   - a checksum mismatch, an undecodable message (an unknown type tag included, such as
//     the retired daemon-worker tags 1-8), a reply-typed message, a malformed task
//     payload (by ValidateTaskRecord, src/core/task.h, the rules a restored snapshot's
//     pending tasks pass too), or a time-regressing request poisons the connection — the
//     client is dropped with a diagnostic, never resynchronized past the damage;
//   - a peer that vanishes mid-frame (SIGKILL, crash) is an EOF with a partial buffer:
//     the bytes are discarded and the daemon keeps scheduling;
//   - writes use MSG_NOSIGNAL, so a client closing its read end can never SIGPIPE the
//     daemon; an unflushable reply backlog beyond the out-buffer bound is a disconnect.
//
// Submissions funnel into the same bounded-queue admission control as in-process callers
// (GrantService::Submit; refusals counted in admission_rejects and reported per batch in
// SubmitReplyMsg). Because each request carries its virtual-time instant and the daemon
// applies its block-arrival schedule up to that instant before acting (advance hook), a
// remote workload's grant trace is byte-identical to the in-process sim driver's — proven
// by tests/service/net_transport_test.cc and the CI remote-client kill leg.

#ifndef SRC_SERVICE_NET_TRANSPORT_H_
#define SRC_SERVICE_NET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/task.h"
#include "src/rdp/alpha_grid.h"
#include "src/service/grant_service.h"
#include "src/service/messages.h"

namespace dpack {

// A listen/connect endpoint: "unix:<path>" or "tcp:<port>" (loopback only — the service
// carries privacy budgets, so cross-machine transport is a federation-layer concern).
struct NetAddress {
  bool is_unix = false;
  std::string path;    // unix
  uint16_t port = 0;   // tcp (0 = ephemeral, resolved at Listen)
};

// Parses "unix:<path>" / "tcp:<port>". Returns false with a diagnostic on anything else,
// including a unix path that is empty, contains a NUL byte, or does not fit sun_path.
bool ParseNetAddress(std::string_view text, NetAddress* out, std::string* error);

// One blocking connect attempt to `address`; returns the connected fd or -1 with errno set
// (ECONNREFUSED / ENOENT while the daemon is still binding).
int ConnectOnce(const NetAddress& address);

// Traffic counters of one socket endpoint (daemon front or client). Frame and byte counts
// are pure functions of the message sequence, so the fig12 bench gates them like every
// other engine-work counter; disconnect counters are only nonzero under injected faults.
// The spin counters depend on timing and are for operators, never gated.
struct NetCounters {
  uint64_t accepts = 0;             // Connections accepted.
  uint64_t disconnects = 0;         // Connections closed for any reason (EOF included).
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;          // Whole-frame bytes (header + payload).
  uint64_t bytes_received = 0;
  uint64_t protocol_rejects = 0;    // Corrupt/undecodable/malformed/hostile input dropped.
  uint64_t budget_disconnects = 0;  // Progress-budget exhaustions (slow-loris clients).
  uint64_t submits_accepted = 0;    // Tasks admitted through the socket edge.
  uint64_t submits_rejected = 0;    // Tasks refused by the admission bound.
  uint64_t cycles_run = 0;          // Scheduling cycles driven by remote RunCycle.
  uint64_t spin_waits = 0;          // Waits that spun before blocking.
  // Spinning waits that ended during the spin. Near spin_waits, the spin window fits the
  // traffic; near zero, the peer's bytes come later than the window and the spin is waste.
  uint64_t spin_hits = 0;
};

// One nonblocking stream socket with frame reassembly: partial reads accumulate into an
// input buffer until a complete checksum-clean frame is present; partial writes drain an
// output buffer as the kernel accepts bytes. EINTR is retried, EAGAIN means "no progress
// this poll", EOF/EPIPE/ECONNRESET mark the socket dead. Used by both the daemon front and
// the client (the client wraps its polls in budgeted loops that ppoll fd() between tries).
class FrameSocket {
 public:
  // Takes ownership of `fd` and switches it to nonblocking mode.
  explicit FrameSocket(int fd);
  ~FrameSocket();
  FrameSocket(FrameSocket&&) = delete;  // Connections live behind unique_ptr.
  FrameSocket& operator=(FrameSocket&&) = delete;

  // Queues one frame for sending (header + payload appended to the output buffer).
  void QueueFrame(std::string_view payload);

  // Writes as much queued output as the kernel accepts. Returns true if any bytes moved.
  bool FlushSome();

  // Reads as much pending input as available. Returns true if any bytes arrived.
  bool ReadSome();

  // Extracts the next complete frame's payload, if present. kCorrupt poisons the socket
  // (dead() becomes true); the caller must drop the peer.
  enum class Next { kFrame, kNone, kCorrupt };
  Next NextFrame(std::string* payload, size_t max_frame_bytes, std::string* error);

  int fd() const { return fd_; }
  bool dead() const { return dead_; }
  // True while the peer owes us bytes (a partial frame is buffered) or we owe the kernel
  // bytes (unflushed output) — the states the progress budget meters.
  bool has_partial_input() const { return !in_.empty(); }
  size_t pending_output() const { return out_.size() - out_pos_; }

 private:
  int fd_ = -1;
  bool dead_ = false;
  std::string in_;
  std::string out_;
  size_t out_pos_ = 0;  // Flushed prefix of out_ (compacted when fully drained).
};

struct NetFrontConfig {
  // Maximum frame payload the front will buffer; a header declaring more is rejected
  // immediately.
  size_t max_frame_bytes = 1 << 20;
  size_t max_connections = 8;
  // Consecutive no-progress polls a connection may hold a partial frame or unflushed
  // output; exhaustion is a disconnect (counted in budget_disconnects).
  uint64_t progress_budget = 40000;
  // Longest blocking part of a wait between PollOnce() iterations in ServeUntilShutdown,
  // microseconds: the ppoll there ends when a socket is ready or after this long, behind at
  // most one spin window. Every budget below is therefore at most
  // budget * (spin window + poll_sleep_us) of real time.
  unsigned int poll_sleep_us = 200;
  // ServeUntilShutdown gives up after this many consecutive idle polls (no progress on any
  // connection). 0 = serve forever; harnesses set a bound so an orphaned daemon exits
  // instead of leaking.
  uint64_t serve_idle_budget = 0;
};

// Listening socket (Unix-domain path or loopback TCP). For tcp:0 the kernel assigns an
// ephemeral port, readable via address() after construction — tests bind without racing.
class NetListener {
 public:
  // DPACK_CHECKs on bind/listen failure (daemon startup, not hostile input). Unix paths
  // are unlinked before bind and on destruction.
  explicit NetListener(const NetAddress& address);
  ~NetListener();
  NetListener(const NetListener&) = delete;
  NetListener& operator=(const NetListener&) = delete;

  // Accepts one pending connection (nonblocking); -1 when none is waiting.
  int Accept();
  int fd() const { return fd_; }

  const NetAddress& address() const { return address_; }
  // The printable form clients connect to ("unix:<path>" / "tcp:<resolved port>").
  std::string address_string() const;

 private:
  int fd_ = -1;
  NetAddress address_;
};

// The daemon-side front: accepts tenant connections and funnels their Submit/RunCycle
// requests into `service`. `advance` is the daemon's block-arrival hook — called with each
// request's virtual-time instant before the request is applied, it adds every scheduled
// block with arrival <= now, reproducing the sim driver's block-before-task-before-cycle
// event order (src/sim/sim_driver.cc) so remote grants match in-process runs byte for byte.
class NetServiceFront {
 public:
  // `service`, `blocks`, and `grid` must outlive the front. `blocks` is the same manager
  // the service schedules against; the front uses it only to validate client block ids.
  NetServiceFront(GrantService* service, const BlockManager* blocks, AlphaGridPtr grid,
                  std::unique_ptr<NetListener> listener, NetFrontConfig config,
                  std::function<void(double)> advance);
  ~NetServiceFront();

  // One event-loop step: accept, read, dispatch, flush. Returns true if any connection
  // made progress (the caller sleeps only when nothing moved).
  bool PollOnce();

  // Runs PollOnce until a client sends Shutdown (returns true) or the idle budget runs out
  // (returns false; only with serve_idle_budget > 0), waiting in ppoll whenever a step made
  // no progress; the first such wait after a step that received a request frame spins
  // first. Remaining replies are flushed on a budget before returning.
  bool ServeUntilShutdown();

  bool shutdown_received() const { return shutdown_received_; }
  const NetCounters& counters() const { return counters_; }
  const NetListener& listener() const { return *listener_; }

 private:
  struct Connection {
    std::unique_ptr<FrameSocket> socket;
    uint64_t no_progress_polls = 0;
  };

  void AcceptPending();
  // One wait over the listener (POLLIN) and every connection (POLLIN, plus POLLOUT where
  // output is pending; `flush_only` watches just the POLLOUT side): a spin first with
  // `spin`, then a ppoll for at most poll_sleep_us.
  void WaitForSockets(bool flush_only, bool spin);
  // Processes every complete frame buffered on `conn`. Returns true on progress; sets
  // *drop when the connection must be closed (corruption, protocol violation, backlog).
  bool DrainFrames(Connection& conn, bool* drop);
  // Requests are consumed: a Submit's task records move into the service.
  void HandleMessage(Connection& conn, ServiceMessage&& message, bool* drop);
  // Gates a request's virtual-time instant: a non-finite instant, or one below the
  // high-water mark, is a protocol violation (returns false and sets *drop). Otherwise
  // every block arrival at or before `now` fires and `now` becomes the high-water mark.
  bool AdvanceTo(double now, const char* request, bool* drop);
  void HandleSubmit(Connection& conn, SubmitMsg&& msg, bool* drop);
  void HandleRunCycle(Connection& conn, const RunCycleMsg& msg, bool* drop);
  void SendMessage(Connection& conn, const ServiceMessage& message);
  void CloseConnection(size_t index, const char* reason);

  GrantService* service_;
  const BlockManager* blocks_;
  AlphaGridPtr grid_;
  std::unique_ptr<NetListener> listener_;
  NetFrontConfig config_;
  std::function<void(double)> advance_;
  std::vector<Connection> connections_;
  NetCounters counters_;
  // Virtual time is daemon-global and monotone: a request instant below the high-water
  // mark would rewind budget unlocking, so it is a protocol violation, not a replay.
  double time_high_water_ = 0.0;
  bool shutdown_received_ = false;
};

}  // namespace dpack

#endif  // SRC_SERVICE_NET_TRANSPORT_H_
