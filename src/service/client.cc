#include "src/service/client.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/frame.h"
#include "src/common/sleep.h"

namespace dpack {

namespace {

// One blocking-style connect attempt; returns the connected fd or -1 with errno set.
int TryConnect(const NetAddress& address) {
  if (address.is_unix) {
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, address.path.c_str(), address.path.size() + 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(address.port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    return fd;
  }
  int saved = errno;
  close(fd);
  errno = saved;
  return -1;
}

}  // namespace

ServiceClient::ServiceClient(NetClientConfig config) : config_(config) {
  DPACK_CHECK(config_.io_budget >= 1);
}

ServiceClient::~ServiceClient() = default;

bool ServiceClient::Connect(const std::string& address_text, std::string* error) {
  NetAddress address;
  if (!ParseNetAddress(address_text, &address, error)) {
    return false;
  }
  for (uint64_t attempt = 0; attempt < config_.io_budget; ++attempt) {
    int fd = TryConnect(address);
    if (fd >= 0) {
      socket_ = std::make_unique<FrameSocket>(fd);
      return true;
    }
    // The daemon may still be binding (harnesses launch both processes at once): refused /
    // not-yet-created are retried on the budget; anything else is a real failure.
    if (errno != ECONNREFUSED && errno != ENOENT && errno != EINTR) {
      break;
    }
    SleepFullMicros(config_.poll_sleep_us);
  }
  *error = std::string("cannot connect to ") + address_text + ": " + std::strerror(errno);
  return false;
}

void ServiceClient::Close() { socket_.reset(); }

void ServiceClient::WaitForSocket(short events) {
  pollfd fd{socket_->fd(), events, 0};
  WaitForFds(&fd, 1, config_.poll_sleep_us);
}

bool ServiceClient::SendRequest(const ServiceMessage& message, std::string* error) {
  if (!connected()) {
    *error = "not connected";
    return false;
  }
  std::string payload = EncodeMessage(message);
  socket_->QueueFrame(payload);
  ++counters_.frames_sent;
  counters_.bytes_sent += kFrameHeaderBytes + payload.size();
  for (uint64_t poll = 0; poll < config_.io_budget; ++poll) {
    socket_->FlushSome();
    if (socket_->dead()) {
      *error = "daemon closed the connection mid-send";
      return false;
    }
    if (socket_->pending_output() == 0) {
      return true;
    }
    WaitForSocket(POLLOUT);
  }
  *error = "send budget exhausted (daemon not draining)";
  return false;
}

bool ServiceClient::ReceiveReply(ServiceMessage* out, std::string* error) {
  std::string payload;
  for (uint64_t poll = 0; poll < config_.io_budget; ++poll) {
    socket_->ReadSome();
    switch (socket_->NextFrame(&payload, config_.max_frame_bytes, error)) {
      case FrameSocket::Next::kFrame: {
        ++counters_.frames_received;
        counters_.bytes_received += kFrameHeaderBytes + payload.size();
        if (!DecodeMessage(payload, out, error)) {
          ++counters_.protocol_rejects;
          socket_.reset();  // Same poison rule as the daemon: never read past damage.
          return false;
        }
        return true;
      }
      case FrameSocket::Next::kCorrupt:
        ++counters_.protocol_rejects;
        socket_.reset();
        return false;
      case FrameSocket::Next::kNone:
        break;
    }
    if (socket_->dead()) {
      *error = "daemon closed the connection";
      return false;
    }
    WaitForSocket(POLLIN);
  }
  *error = "reply budget exhausted (daemon silent)";
  return false;
}

bool ServiceClient::Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
                           uint64_t* rejected, std::string* error) {
  SubmitMsg msg;
  msg.seq = next_seq_++;
  msg.now = now;
  msg.entries.reserve(tasks.size());
  for (const Task& task : tasks) {
    SubmitMsg::Entry entry;
    entry.id = task.id;
    entry.weight = task.weight;
    entry.arrival_time = task.arrival_time;
    entry.timeout = task.timeout;
    entry.num_recent_blocks = task.num_recent_blocks;
    entry.demand = task.demand.epsilons();
    entry.blocks.reserve(task.blocks.size());
    for (BlockId b : task.blocks) {
      entry.blocks.push_back(static_cast<int64_t>(b));
    }
    msg.entries.push_back(std::move(entry));
  }
  ServiceMessage reply;
  if (!SendRequest(msg, error) || !ReceiveReply(&reply, error)) {
    return false;
  }
  const auto* submit_reply = std::get_if<SubmitReplyMsg>(&reply);
  if (submit_reply == nullptr || submit_reply->seq != msg.seq) {
    *error = "daemon reply out of protocol (expected SubmitReply seq " +
             std::to_string(msg.seq) + ")";
    socket_.reset();
    return false;
  }
  *accepted = submit_reply->accepted;
  *rejected = submit_reply->rejected;
  return true;
}

bool ServiceClient::RunCycle(double now, std::vector<TaskId>* granted, std::string* error) {
  RunCycleMsg msg;
  msg.seq = next_seq_++;
  msg.now = now;
  ServiceMessage reply;
  if (!SendRequest(msg, error) || !ReceiveReply(&reply, error)) {
    return false;
  }
  const auto* cycle_reply = std::get_if<CycleReplyMsg>(&reply);
  if (cycle_reply == nullptr || cycle_reply->seq != msg.seq) {
    *error = "daemon reply out of protocol (expected CycleReply seq " +
             std::to_string(msg.seq) + ")";
    socket_.reset();
    return false;
  }
  granted->clear();
  granted->reserve(cycle_reply->granted.size());
  for (int64_t id : cycle_reply->granted) {
    granted->push_back(static_cast<TaskId>(id));
  }
  return true;
}

bool ServiceClient::SendShutdown(std::string* error) {
  return SendRequest(ShutdownMsg{}, error);
}

bool RunRemoteWorkload(ServiceClient& client, std::vector<Task> tasks,
                       const SimConfig& config, RemoteRunResult* result, std::string* error) {
  std::vector<double> block_schedule = BlockArrivalSchedule(config);
  double horizon = SimulationHorizon(config, tasks, block_schedule);
  double next_after_horizon = 0.0;
  std::vector<double> cycle_instants = CycleInstants(config, horizon, &next_after_horizon);

  // The event queue fires same-instant events in insertion order; a stable sort by arrival
  // reproduces exactly that order for the task stream (workloads are already arrival-sorted,
  // making this a no-op in practice).
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) { return a.arrival_time < b.arrival_time; });

  // Submits every task with arrival <= cutoff that has not been submitted yet, batched per
  // distinct arrival instant (each batch is one Submit carrying its instant, so the daemon
  // advances its block schedule to that instant first — the block-before-task event order).
  size_t next_task = 0;
  auto submit_through = [&](double cutoff) {
    while (next_task < tasks.size() && tasks[next_task].arrival_time <= cutoff) {
      double instant = tasks[next_task].arrival_time;
      std::vector<Task> batch;
      while (next_task < tasks.size() && tasks[next_task].arrival_time == instant) {
        batch.push_back(tasks[next_task]);
        ++next_task;
      }
      uint64_t accepted = 0, rejected = 0;
      if (!client.Submit(instant, batch, &accepted, &rejected, error)) {
        return false;
      }
      result->submitted += batch.size();
      result->accepted += accepted;
      result->rejected += rejected;
    }
    return true;
  };

  for (double t : cycle_instants) {
    if (!submit_through(t)) {
      return false;
    }
    std::vector<TaskId> granted;
    if (!client.RunCycle(t, &granted, error)) {
      return false;
    }
    result->grant_trace.push_back(std::move(granted));
    ++result->cycles_run;
  }
  // Stragglers past the last cycle: the in-process driver still submits them (they sit in
  // the pending queue and in the submission metrics), so the remote run does too.
  if (!submit_through(std::numeric_limits<double>::infinity())) {
    return false;
  }
  return true;
}

}  // namespace dpack
