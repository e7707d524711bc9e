// Versioned message schema of the grant service's socket edge (src/service/net_transport.h,
// src/README.md "Remote client edge"): client-driven request/reply.
//   client -> daemon: Submit, RunCycle, Shutdown
//   daemon -> client: SubmitReply, CycleReply
// Each client request carries the virtual-time instant it fires at, so the daemon can
// replay the sim driver's exact event order (block arrivals at or before the instant first,
// then the request) and keep remote grants byte-identical to in-process Submit.
//
// Every message is one checksummed frame (src/common/frame.h adds length + FNV-1a framing);
// inside the frame, messages carry their own magic tag, format version, and type byte
// (Shutdown 9, Submit 10, SubmitReply 11, RunCycle 12, CycleReply 13; tags 1-8 belonged to
// the retired daemon-worker protocol and are unknown types now). Fields are encoded with
// the checkpoint codec's discipline (src/common/wire.h: fixed-width little-endian fields,
// doubles as raw IEEE-754 bit patterns), so task demands reach the daemon bit for bit.
//
// Decoding rejects — with a diagnostic, never a crash or a silently-wrong message — bad
// magic, unknown versions or types, truncation, implausible element counts, and trailing
// bytes. The corruption property tests (tests/service/messages_test.cc) mirror
// checkpoint_test.cc's truncate/bit-flip suites over every message type.

#ifndef SRC_SERVICE_MESSAGES_H_
#define SRC_SERVICE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dpack {

inline constexpr uint32_t kServiceWireVersion = 2;  // v2: client-edge messages (ISSUE 10).

// Client -> daemon: stop serving (no reply; the daemon flushes pending replies and exits its
// serve loop).
struct ShutdownMsg {};

// Client -> daemon: submit grant requests at virtual-time instant `now` (the tasks' arrival
// instant; the daemon applies block arrivals <= now first, then funnels every entry through
// the same admission-controlled GrantService::Submit as in-process callers). Entries are
// full task payloads including the eviction timeout and the unresolved most-recent-blocks
// request, because submission (and its late block resolution) has not happened yet.
struct SubmitMsg {
  uint64_t seq = 0;  // Echoed in SubmitReplyMsg; lets a pipelining client match replies.
  double now = 0.0;
  struct Entry {
    int64_t id = 0;
    double weight = 1.0;
    double arrival_time = 0.0;
    double timeout = 0.0;  // Raw bits on the wire; +inf = never evicted, as in Task.
    uint64_t num_recent_blocks = 0;
    std::vector<double> demand;
    std::vector<int64_t> blocks;
  };
  std::vector<Entry> entries;
};

// Daemon -> client: per-batch admission outcome (accepted + rejected = entries shipped).
struct SubmitReplyMsg {
  uint64_t seq = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // Admission-bound refusals, mirrored in admission_rejects.
};

// Client -> daemon: run one scheduling cycle at virtual-time instant `now`.
struct RunCycleMsg {
  uint64_t seq = 0;
  double now = 0.0;
};

// Daemon -> client: the granted task ids of the cycle just run, in grant order — the
// byte-comparable signal the remote differential proofs diff against in-process runs.
struct CycleReplyMsg {
  uint64_t seq = 0;
  uint64_t cycle = 0;  // 0-based index of the cycle this reply reports.
  std::vector<int64_t> granted;
};

using ServiceMessage =
    std::variant<ShutdownMsg, SubmitMsg, SubmitReplyMsg, RunCycleMsg, CycleReplyMsg>;

std::string EncodeMessage(const ServiceMessage& message);

// Decodes one message. On failure returns false and sets *error to a diagnostic naming the
// corruption (*out is unspecified). Trailing bytes after a well-formed message are an error.
bool DecodeMessage(std::string_view bytes, ServiceMessage* out, std::string* error);

}  // namespace dpack

#endif  // SRC_SERVICE_MESSAGES_H_
