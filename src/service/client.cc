#include "src/service/client.h"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/frame.h"
#include "src/common/sleep.h"

namespace dpack {

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
    int fd = ConnectOnce(address);
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

void ServiceClient::WaitForSocket(short events, bool spin) {
  pollfd fd{socket_->fd(), events, 0};
  counters_.spin_waits += spin ? 1 : 0;
  if (WaitForFds(&fd, 1, config_.poll_sleep_us, spin)) {
    ++counters_.spin_hits;
  }
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
    WaitForSocket(POLLOUT, /*spin=*/false);
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
    // Only the first wait spins: a reply that misses the window is not a quick one.
    WaitForSocket(POLLIN, /*spin=*/poll == 0);
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
    msg.entries.push_back(RecordOf(task));
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

bool ReplayWorkload(WorkloadFront& front, std::vector<Task> tasks, const SimConfig& config,
                    ReplayResult* result, std::string* error) {
  std::vector<double> block_schedule = BlockArrivalSchedule(config);
  double horizon = SimulationHorizon(config, tasks, block_schedule);
  double next_after_horizon = 0.0;
  std::vector<double> cycle_instants = CycleInstants(config, horizon, &next_after_horizon);

  // No blocks: the front feeds the block schedule up to each request's instant itself.
  return WalkSchedule(
      {}, tasks, cycle_instants, {},
      [&](double t, std::span<Task> run) {
        uint64_t accepted = 0, rejected = 0;
        if (!front.Submit(t, std::vector<Task>(run.begin(), run.end()), &accepted, &rejected,
                          error)) {
          return false;
        }
        result->submitted += run.size();
        result->accepted += accepted;
        result->rejected += rejected;
        return true;
      },
      [&](double t) {
        std::vector<TaskId> granted;
        if (!front.RunCycle(t, &granted, error)) {
          return false;
        }
        result->grant_trace.push_back(std::move(granted));
        ++result->cycles_run;
        return true;
      });
}

bool LocalServiceFront::Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
                               uint64_t* rejected, std::string* /*error*/) {
  feed_.AdvanceTo(now, *blocks_);
  uint64_t admitted = 0;
  for (const Task& task : tasks) {
    admitted += service_->Submit(task) ? 1 : 0;
  }
  *accepted = admitted;
  *rejected = tasks.size() - admitted;
  return true;
}

bool LocalServiceFront::RunCycle(double now, std::vector<TaskId>* granted,
                                 std::string* /*error*/) {
  feed_.AdvanceTo(now, *blocks_);
  service_->RunCycle(now);
  *granted = service_->last_granted();
  return true;
}

}  // namespace dpack
