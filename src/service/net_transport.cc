#include "src/service/net_transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/cli.h"
#include "src/common/frame.h"
#include "src/common/sleep.h"

namespace dpack {

namespace {

constexpr char kUnixPrefix[] = "unix:";
constexpr char kTcpPrefix[] = "tcp:";

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  DPACK_CHECK(flags >= 0);
  DPACK_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

bool ParseNetAddress(std::string_view text, NetAddress* out, std::string* error) {
  if (text.rfind(kUnixPrefix, 0) == 0) {
    std::string_view path = text.substr(sizeof(kUnixPrefix) - 1);
    if (path.empty()) {
      *error = "unix address needs a path (unix:/some/path)";
      return false;
    }
    // A NUL would cut the path short at bind/unlink time ("unix:/tmp/a\0b" would bind
    // /tmp/a) or, leading, name an abstract socket instead of a file.
    if (path.find('\0') != std::string_view::npos) {
      *error = "unix socket path contains a NUL byte";
      return false;
    }
    sockaddr_un probe;
    if (path.size() >= sizeof(probe.sun_path)) {
      *error = "unix socket path too long";
      return false;
    }
    out->is_unix = true;
    out->path.assign(path);
    return true;
  }
  if (text.rfind(kTcpPrefix, 0) == 0) {
    std::string_view port_text = text.substr(sizeof(kTcpPrefix) - 1);
    std::optional<uint64_t> port = TryParseUint64(port_text);
    if (!port.has_value() || *port > 65535) {
      *error = "tcp address needs a port in [0, 65535] (tcp:7001; 0 = ephemeral)";
      return false;
    }
    out->is_unix = false;
    out->port = static_cast<uint16_t>(*port);
    return true;
  }
  *error = "address must start with unix: or tcp:";
  return false;
}

// --- FrameSocket ---------------------------------------------------------------------------

FrameSocket::FrameSocket(int fd) : fd_(fd) {
  DPACK_CHECK(fd >= 0);
  SetNonBlocking(fd_);
}

FrameSocket::~FrameSocket() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

void FrameSocket::QueueFrame(std::string_view payload) { AppendFrame(&out_, payload); }

bool FrameSocket::FlushSome() {
  bool progress = false;
  while (!dead_ && out_pos_ < out_.size()) {
    // MSG_NOSIGNAL: a peer that closed its read end yields EPIPE here, never a SIGPIPE
    // that would take the daemon down.
    ssize_t n = send(fd_, out_.data() + out_pos_, out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      progress = true;
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    dead_ = true;  // EPIPE, ECONNRESET, or any other terminal send failure.
  }
  if (out_pos_ == out_.size() && out_pos_ > 0) {
    out_.clear();
    out_pos_ = 0;
  }
  return progress;
}

bool FrameSocket::ReadSome() {
  bool progress = false;
  char buf[64 * 1024];
  while (!dead_) {
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      progress = true;
      continue;
    }
    if (n == 0) {
      dead_ = true;  // Orderly EOF (or the tail end of a peer crash).
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    dead_ = true;  // ECONNRESET and friends.
  }
  return progress;
}

FrameSocket::Next FrameSocket::NextFrame(std::string* payload, size_t max_frame_bytes,
                                         std::string* error) {
  std::string_view body;
  size_t consumed = 0;
  switch (DecodeFrame(in_, max_frame_bytes, &body, &consumed, error)) {
    case FrameDecodeStatus::kOk:
      payload->assign(body);
      in_.erase(0, consumed);
      return Next::kFrame;
    case FrameDecodeStatus::kNeedMore:
      return Next::kNone;
    case FrameDecodeStatus::kCorrupt:
      // A stream reader cannot know where the next frame boundary is once one frame is
      // damaged — the connection is poison.
      dead_ = true;
      return Next::kCorrupt;
  }
  DPACK_CHECK(false);
  return Next::kCorrupt;
}

// --- NetListener ---------------------------------------------------------------------------

NetListener::NetListener(const NetAddress& address) : address_(address) {
  if (address_.is_unix) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    DPACK_CHECK(fd_ >= 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    DPACK_CHECK(address_.path.size() < sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, address_.path.c_str(), address_.path.size() + 1);
    unlink(address_.path.c_str());  // A stale socket file from a dead daemon.
    DPACK_CHECK_MSG(bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                    "cannot bind unix socket " << address_.path);
  } else {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    DPACK_CHECK(fd_ >= 0);
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(address_.port);
    DPACK_CHECK_MSG(bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                    "cannot bind tcp port " << address_.port);
    socklen_t len = sizeof(addr);
    DPACK_CHECK(getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
    address_.port = ntohs(addr.sin_port);  // Resolve tcp:0 to the assigned port.
  }
  DPACK_CHECK(listen(fd_, 16) == 0);
  SetNonBlocking(fd_);
}

NetListener::~NetListener() {
  if (fd_ >= 0) {
    close(fd_);
  }
  if (address_.is_unix) {
    unlink(address_.path.c_str());
  }
}

int NetListener::Accept() {
  while (true) {
    int fd = accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      return fd;
    }
    if (errno == EINTR) {
      continue;
    }
    return -1;  // EAGAIN (nothing pending) or a transient accept failure.
  }
}

std::string NetListener::address_string() const {
  if (address_.is_unix) {
    return std::string(kUnixPrefix) + address_.path;
  }
  return std::string(kTcpPrefix) + std::to_string(address_.port);
}

// --- NetServiceFront -----------------------------------------------------------------------

NetServiceFront::NetServiceFront(GrantService* service, const BlockManager* blocks,
                                 AlphaGridPtr grid, std::unique_ptr<NetListener> listener,
                                 NetFrontConfig config, std::function<void(double)> advance)
    : service_(service),
      blocks_(blocks),
      grid_(std::move(grid)),
      listener_(std::move(listener)),
      config_(config),
      advance_(std::move(advance)) {
  DPACK_CHECK(service_ != nullptr);
  DPACK_CHECK(blocks_ != nullptr);
  DPACK_CHECK(grid_ != nullptr);
  DPACK_CHECK(listener_ != nullptr);
  DPACK_CHECK(config_.max_frame_bytes >= kFrameHeaderBytes);
  DPACK_CHECK(config_.progress_budget >= 1);
}

NetServiceFront::~NetServiceFront() = default;

void NetServiceFront::AcceptPending() {
  while (true) {
    int fd = listener_->Accept();
    if (fd < 0) {
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      // Over the cap: refuse outright. Accept-then-close beats leaving the backlog to
      // fill — the client sees a deterministic EOF instead of a hang.
      close(fd);
      ++counters_.protocol_rejects;
      std::fprintf(stderr, "net: connection refused (cap %zu reached)\n",
                   config_.max_connections);
      continue;
    }
    Connection conn;
    conn.socket = std::make_unique<FrameSocket>(fd);
    connections_.push_back(std::move(conn));
    ++counters_.accepts;
  }
}

bool NetServiceFront::ValidateEntry(const SubmitMsg::Entry& entry, std::string* error) const {
  if (entry.demand.size() != grid_->size()) {
    *error = "demand curve width " + std::to_string(entry.demand.size()) +
             " does not match the service grid (" + std::to_string(grid_->size()) + ")";
    return false;
  }
  for (double eps : entry.demand) {
    if (!std::isfinite(eps) || eps < 0.0) {
      *error = "demand epsilon must be finite and non-negative";
      return false;
    }
  }
  if (!std::isfinite(entry.weight) || entry.weight <= 0.0) {
    *error = "weight must be finite and positive";
    return false;
  }
  if (!std::isfinite(entry.arrival_time) || entry.arrival_time < 0.0) {
    *error = "arrival_time must be finite and non-negative";
    return false;
  }
  // +inf (never evicted) is the one sanctioned non-finite; NaN would poison every eviction
  // comparison and a negative deadline is meaningless.
  if (std::isnan(entry.timeout) || entry.timeout < 0.0) {
    *error = "timeout must be non-negative or +inf";
    return false;
  }
  int64_t known_blocks = static_cast<int64_t>(blocks_->block_count());
  for (size_t b = 0; b < entry.blocks.size(); ++b) {
    if (entry.blocks[b] < 0 || entry.blocks[b] >= known_blocks) {
      *error = "block id " + std::to_string(entry.blocks[b]) + " outside the known range";
      return false;
    }
    // Strictly ascending is the canonical encoding (trace_io enforces the same): a
    // duplicate id would double-charge that block's budget on grant.
    if (b > 0 && entry.blocks[b - 1] >= entry.blocks[b]) {
      *error = "block list must be sorted and distinct";
      return false;
    }
  }
  return true;
}

void NetServiceFront::SendMessage(Connection& conn, const ServiceMessage& message) {
  std::string payload = EncodeMessage(message);
  conn.socket->QueueFrame(payload);
  ++counters_.frames_sent;
  counters_.bytes_sent += kFrameHeaderBytes + payload.size();
}

void NetServiceFront::HandleSubmit(Connection& conn, const SubmitMsg& msg, bool* drop) {
  if (!std::isfinite(msg.now) || msg.now < time_high_water_) {
    std::fprintf(stderr, "net: submit instant %f regresses virtual time %f; dropping peer\n",
                 msg.now, time_high_water_);
    ++counters_.protocol_rejects;
    *drop = true;
    return;
  }
  // Block arrivals at or before this instant fire first (the sim driver's event order:
  // kBlockArrival < kTaskArrival), and validation runs against the advanced population.
  advance_(msg.now);
  time_high_water_ = msg.now;
  for (const SubmitMsg::Entry& entry : msg.entries) {
    std::string error;
    if (!ValidateEntry(entry, &error)) {
      std::fprintf(stderr, "net: malformed submission (task %lld): %s; dropping peer\n",
                   static_cast<long long>(entry.id), error.c_str());
      ++counters_.protocol_rejects;
      *drop = true;
      return;
    }
  }
  SubmitReplyMsg reply;
  reply.seq = msg.seq;
  for (const SubmitMsg::Entry& entry : msg.entries) {
    Task task(entry.id, entry.weight, RdpCurve(grid_, entry.demand));
    task.arrival_time = entry.arrival_time;
    task.timeout = entry.timeout;
    task.num_recent_blocks = static_cast<size_t>(entry.num_recent_blocks);
    task.blocks.reserve(entry.blocks.size());
    for (int64_t b : entry.blocks) {
      task.blocks.push_back(static_cast<BlockId>(b));
    }
    if (service_->Submit(std::move(task))) {
      ++reply.accepted;
      ++counters_.submits_accepted;
    } else {
      ++reply.rejected;  // The admission bound refused it; mirrored in admission_rejects.
      ++counters_.submits_rejected;
    }
  }
  SendMessage(conn, reply);
}

void NetServiceFront::HandleRunCycle(Connection& conn, const RunCycleMsg& msg) {
  advance_(msg.now);
  time_high_water_ = msg.now;
  service_->RunCycle(msg.now);
  grant_trace_.push_back(service_->last_granted());
  ++counters_.cycles_run;
  CycleReplyMsg reply;
  reply.seq = msg.seq;
  reply.cycle = grant_trace_.size() - 1;
  reply.granted.reserve(grant_trace_.back().size());
  for (TaskId id : grant_trace_.back()) {
    reply.granted.push_back(static_cast<int64_t>(id));
  }
  SendMessage(conn, reply);
}

bool NetServiceFront::HandleMessage(Connection& conn, const ServiceMessage& message,
                                    bool* drop) {
  if (const auto* submit = std::get_if<SubmitMsg>(&message)) {
    HandleSubmit(conn, *submit, drop);
    return true;
  }
  if (const auto* cycle = std::get_if<RunCycleMsg>(&message)) {
    if (!std::isfinite(cycle->now) || cycle->now < time_high_water_) {
      std::fprintf(stderr, "net: cycle instant %f regresses virtual time %f; dropping peer\n",
                   cycle->now, time_high_water_);
      ++counters_.protocol_rejects;
      *drop = true;
      return true;
    }
    HandleRunCycle(conn, *cycle);
    return true;
  }
  if (std::holds_alternative<ShutdownMsg>(message)) {
    shutdown_received_ = true;
    return true;
  }
  // Reply-typed messages have no business arriving from a tenant.
  std::fprintf(stderr, "net: unexpected message type %zu from client; dropping peer\n",
               message.index());
  ++counters_.protocol_rejects;
  *drop = true;
  return true;
}

bool NetServiceFront::DrainFrames(Connection& conn, bool* drop) {
  bool progress = false;
  std::string payload;
  std::string error;
  while (!*drop && !shutdown_received_) {
    FrameSocket::Next next = conn.socket->NextFrame(&payload, config_.max_frame_bytes,
                                                    &error);
    if (next == FrameSocket::Next::kNone) {
      break;
    }
    progress = true;
    if (next == FrameSocket::Next::kCorrupt) {
      std::fprintf(stderr, "net: corrupt frame from client: %s; dropping peer\n",
                   error.c_str());
      ++counters_.protocol_rejects;
      *drop = true;
      break;
    }
    ++counters_.frames_received;
    counters_.bytes_received += kFrameHeaderBytes + payload.size();
    ServiceMessage message;
    if (!DecodeMessage(payload, &message, &error)) {
      std::fprintf(stderr, "net: undecodable message from client: %s; dropping peer\n",
                   error.c_str());
      ++counters_.protocol_rejects;
      *drop = true;
      break;
    }
    HandleMessage(conn, message, drop);
  }
  if (!*drop && conn.socket->pending_output() > config_.max_output_backlog) {
    std::fprintf(stderr, "net: client not draining replies (%zu bytes queued); dropping\n",
                 conn.socket->pending_output());
    ++counters_.protocol_rejects;
    *drop = true;
  }
  return progress;
}

void NetServiceFront::CloseConnection(size_t index, const char* reason) {
  Connection& conn = connections_[index];
  if (conn.socket->has_partial_input()) {
    // The SIGKILL-mid-frame shape: the peer vanished with a frame half-sent. The partial
    // bytes are discarded, never interpreted.
    std::fprintf(stderr, "net: dropping %s connection with a partial frame buffered\n",
                 reason);
  }
  ++counters_.disconnects;
  connections_.erase(connections_.begin() + static_cast<ptrdiff_t>(index));
}

bool NetServiceFront::PollOnce() {
  size_t before = connections_.size();
  AcceptPending();
  bool progress = connections_.size() != before;
  for (size_t i = 0; i < connections_.size();) {
    Connection& conn = connections_[i];
    bool moved = false;
    moved |= conn.socket->FlushSome();
    moved |= conn.socket->ReadSome();
    bool drop = false;
    // Drain even when the socket already hit EOF: complete frames that arrived before the
    // peer died (a final Shutdown, say) must still be applied.
    moved |= DrainFrames(conn, &drop);
    moved |= conn.socket->FlushSome();
    if (drop || conn.socket->dead()) {
      CloseConnection(i, drop ? "misbehaving" : "closed");
      progress = true;
      continue;
    }
    bool has_pending_work =
        conn.socket->has_partial_input() || conn.socket->pending_output() > 0;
    if (moved || !has_pending_work) {
      conn.no_progress_polls = 0;
    } else if (++conn.no_progress_polls >= config_.progress_budget) {
      std::fprintf(stderr,
                   "net: connection stalled for %llu polls (budget exhausted); dropping\n",
                   static_cast<unsigned long long>(conn.no_progress_polls));
      ++counters_.budget_disconnects;
      CloseConnection(i, "stalled");
      progress = true;
      continue;
    }
    progress |= moved;
    ++i;
  }
  return progress;
}

void NetServiceFront::WaitForSockets(bool flush_only) {
  std::vector<pollfd> fds;
  fds.reserve(connections_.size() + 1);
  if (!flush_only) {
    fds.push_back({listener_->fd(), POLLIN, 0});
  }
  for (const Connection& conn : connections_) {
    if (conn.socket->dead()) {
      continue;  // Nothing more to move, and its error state would end every wait at once.
    }
    short events = conn.socket->pending_output() > 0 ? POLLOUT : 0;
    if (!flush_only) {
      events |= POLLIN;
    }
    if (events != 0) {
      fds.push_back({conn.socket->fd(), events, 0});
    }
  }
  WaitForFds(fds.data(), fds.size(), config_.poll_sleep_us);
}

bool NetServiceFront::ServeUntilShutdown() {
  uint64_t idle_polls = 0;
  while (!shutdown_received_) {
    if (PollOnce()) {
      idle_polls = 0;
      continue;
    }
    if (config_.serve_idle_budget > 0 && ++idle_polls >= config_.serve_idle_budget) {
      std::fprintf(stderr, "net: serve idle budget exhausted; stopping\n");
      return false;
    }
    WaitForSockets(/*flush_only=*/false);
  }
  // Flush the replies still owed to well-behaved clients, on the same progress budget a
  // single connection gets; whoever has not drained by then is dropped with the daemon.
  for (uint64_t i = 0; i < config_.progress_budget; ++i) {
    bool any_pending = false;
    for (Connection& conn : connections_) {
      conn.socket->FlushSome();
      any_pending |= !conn.socket->dead() && conn.socket->pending_output() > 0;
    }
    if (!any_pending) {
      break;
    }
    WaitForSockets(/*flush_only=*/true);
  }
  counters_.disconnects += connections_.size();
  connections_.clear();
  return true;
}

}  // namespace dpack
