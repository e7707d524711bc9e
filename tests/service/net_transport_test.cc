// The socket edge's reject-don't-trust contract, mirrored from shm_ring_test.cc onto a
// byte stream: truncation, bit-flips, hostile lengths, worker-protocol messages, malformed
// task payloads, and time regressions are all rejected with the peer dropped — and after
// every rejection the daemon keeps serving well-behaved clients. Plus the cross-process
// properties: a client SIGKILLed mid-frame leaves no trace but a discarded partial buffer,
// and a remotely driven workload's grant trace is byte-identical to the in-process engine
// across fleet shapes and worker-kill policies — also when every wait may last two seconds,
// which only a daemon and client that wake on arrival finish quickly.

#include "src/service/net_transport.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/frame.h"
#include "src/common/rng.h"
#include "src/common/sleep.h"
#include "src/common/subprocess.h"
#include "src/core/scheduler.h"
#include "src/service/client.h"
#include "src/service/grant_service.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kSeed = 77;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

// An in-process daemon front on an ephemeral loopback port, driven by PollOnce() directly
// so the adversarial tests control every event-loop step. The worker fleet forks lazily on
// the first scheduling cycle, so protocol-only tests never pay for a fork.
struct Harness {
  explicit Harness(NetFrontConfig front_config = {}, GrantServiceConfig service_config = {},
                   size_t num_blocks = 4)
      : blocks(Grid(), /*eps_g=*/10.0, /*delta_g=*/1e-7),
        service(GreedyMetric::kDpack, &blocks, ServiceConfigured(service_config)),
        front(&service, &blocks, Grid(), std::make_unique<NetListener>(TcpEphemeral()),
              front_config, [](double) {}) {
    for (size_t b = 0; b < num_blocks; ++b) {
      blocks.AddBlock(/*arrival_time=*/0.0, /*unlocked=*/true);
    }
  }

  static NetAddress TcpEphemeral() {
    NetAddress address;
    address.is_unix = false;
    address.port = 0;
    return address;
  }

  static GrantServiceConfig ServiceConfigured(GrantServiceConfig config) {
    config.service.num_workers = 2;
    return config;
  }

  BlockManager blocks;
  GrantService service;
  NetServiceFront front;
};

// Blocking loopback connect to the harness's resolved ephemeral port.
int ConnectTo(const Harness& harness) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(harness.front.listener().address().port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

std::string Framed(const ServiceMessage& message) {
  std::string frame;
  AppendFrame(&frame, EncodeMessage(message));
  return frame;
}

// Pumps the front's event loop until `done` holds (or the iteration budget runs out —
// a deterministic deadline, no clocks).
bool PumpUntil(NetServiceFront& front, const std::function<bool()>& done, int iters = 20000) {
  for (int i = 0; i < iters; ++i) {
    front.PollOnce();
    if (done()) {
      return true;
    }
    SleepFullMicros(100);
  }
  return done();
}

// Reads one reply frame off `fd` while keeping the front's event loop moving (both ends
// live on the test thread, so the read must not block).
bool ReadReplyWhilePumping(NetServiceFront& front, int fd, std::string* payload,
                           int iters = 20000) {
  std::string buffer;
  for (int i = 0; i < iters; ++i) {
    front.PollOnce();
    char buf[4096];
    ssize_t n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buffer.append(buf, static_cast<size_t>(n));
    }
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    FrameDecodeStatus status = DecodeFrame(buffer, 1 << 20, &body, &consumed, &error);
    if (status == FrameDecodeStatus::kOk) {
      payload->assign(body);
      return true;
    }
    if (status == FrameDecodeStatus::kCorrupt) {
      ADD_FAILURE() << "corrupt reply from the daemon: " << error;
      return false;
    }
    SleepFullMicros(100);
  }
  return false;
}

SubmitMsg::Entry ValidEntry(int64_t id) {
  SubmitMsg::Entry entry;
  entry.id = id;
  entry.weight = 1.0;
  entry.arrival_time = 0.0;
  entry.timeout = std::numeric_limits<double>::infinity();
  entry.demand.assign(Grid()->size(), 0.125);
  return entry;
}

SubmitMsg OneTaskSubmit(uint64_t seq, int64_t id) {
  SubmitMsg msg;
  msg.seq = seq;
  msg.now = 0.0;
  msg.entries.push_back(ValidEntry(id));
  return msg;
}

// Proves the daemon still serves after whatever abuse the test inflicted: a fresh client
// submits one task and gets the matching admission reply.
void ExpectStillServing(Harness& harness, uint64_t seq, int64_t task_id) {
  size_t pending_before = harness.service.pending_count();
  int fd = ConnectTo(harness);
  SendAll(fd, Framed(OneTaskSubmit(seq, task_id)));
  std::string payload;
  ASSERT_TRUE(ReadReplyWhilePumping(harness.front, fd, &payload));
  ServiceMessage reply;
  std::string error;
  ASSERT_TRUE(DecodeMessage(payload, &reply, &error)) << error;
  const auto* submit_reply = std::get_if<SubmitReplyMsg>(&reply);
  ASSERT_NE(submit_reply, nullptr);
  EXPECT_EQ(submit_reply->seq, seq);
  EXPECT_EQ(submit_reply->accepted, 1u);
  EXPECT_EQ(submit_reply->rejected, 0u);
  EXPECT_EQ(harness.service.pending_count(), pending_before + 1);
  close(fd);
}

TEST(ParseNetAddressTest, AcceptsUnixAndTcp) {
  NetAddress address;
  std::string error;
  ASSERT_TRUE(ParseNetAddress("unix:/tmp/x.sock", &address, &error));
  EXPECT_TRUE(address.is_unix);
  EXPECT_EQ(address.path, "/tmp/x.sock");
  ASSERT_TRUE(ParseNetAddress("tcp:7001", &address, &error));
  EXPECT_FALSE(address.is_unix);
  EXPECT_EQ(address.port, 7001);
  ASSERT_TRUE(ParseNetAddress("tcp:0", &address, &error));
  EXPECT_EQ(address.port, 0);
}

TEST(ParseNetAddressTest, RejectsMalformedAddresses) {
  NetAddress address;
  std::string error;
  EXPECT_FALSE(ParseNetAddress("", &address, &error));
  EXPECT_FALSE(ParseNetAddress("loopback:1", &address, &error));
  EXPECT_FALSE(ParseNetAddress("unix:", &address, &error));
  EXPECT_FALSE(ParseNetAddress("tcp:", &address, &error));
  EXPECT_FALSE(ParseNetAddress("tcp:65536", &address, &error));
  EXPECT_FALSE(ParseNetAddress("tcp:7a", &address, &error));
  EXPECT_FALSE(ParseNetAddress(std::string("unix:") + std::string(200, 'p'), &address,
                               &error));
}

TEST(ParseNetAddressTest, RejectsUnixPathsWithNulBytes) {
  // A NUL inside the path would truncate it at bind/unlink ("/tmp/a\0b" binds /tmp/a); a
  // leading NUL would name an abstract socket. Both are rejected with a diagnostic.
  NetAddress address;
  for (const std::string& text :
       {std::string("unix:/tmp/a\0b", 13), std::string("unix:\0x", 7),
        std::string("unix:/tmp/x.sock\0", 17)}) {
    std::string error;
    EXPECT_FALSE(ParseNetAddress(text, &address, &error)) << "accepted " << text.size()
                                                          << " bytes";
    EXPECT_NE(error.find("NUL"), std::string::npos) << error;
  }
}

// --- Seeded mutations of address strings ----------------------------------------------

size_t AddressMutationIterations() {
  // DPACK_FUZZ_ITERATIONS is the fuzz depth shared with scenario_fuzz_test (default 100);
  // this test runs twice that many mutations.
  const char* env = std::getenv("DPACK_FUZZ_ITERATIONS");
  if (env != nullptr) {
    long long parsed = std::atoll(env);
    if (parsed > 0) {
      return 2 * static_cast<size_t>(parsed);
    }
  }
  return 200;
}

// One seeded iteration: a valid address text takes 1-8 byte flips, inserts (NUL among
// them) and deletes. Returns true when the mutated text parsed.
bool RunAddressMutation(uint64_t seed) {
  SCOPED_TRACE("address mutation seed=" + std::to_string(seed) +
               " (replay: DPACK_FUZZ_REPLAY_SEED=" + std::to_string(seed) + ")");
  const std::vector<std::string> samples = {
      "unix:/tmp/x.sock", "unix:relative.sock", "unix:" + std::string(100, 'p'),
      "tcp:7001",         "tcp:0",              "tcp:65535"};
  Rng rng(seed);
  std::string text =
      samples[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(samples.size()) - 1))];
  int64_t mutations = rng.UniformInt(1, 8);
  for (int64_t m = 0; m < mutations; ++m) {
    int64_t kind = text.empty() ? 1 : rng.UniformInt(0, 2);  // Only an insert fits "".
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size()) - (kind == 1 ? 0 : 1)));
    char byte = rng.Bernoulli(0.25) ? '\0' : static_cast<char>(rng.UniformInt(0, 255));
    if (kind == 0) {
      text[pos] = byte;
    } else if (kind == 1) {
      text.insert(pos, 1, byte);
    } else {
      text.erase(pos, 1);
    }
  }
  NetAddress address;
  std::string error;
  if (!ParseNetAddress(text, &address, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  if (address.is_unix) {
    sockaddr_un probe;
    EXPECT_FALSE(address.path.empty());
    EXPECT_EQ(address.path.find('\0'), std::string::npos);
    EXPECT_LT(address.path.size(), sizeof(probe.sun_path));
    EXPECT_EQ("unix:" + address.path, text);  // No byte dropped or normalized.
  } else {
    EXPECT_LE(address.port, 65535);
    NetAddress reparsed;
    EXPECT_TRUE(ParseNetAddress("tcp:" + std::to_string(address.port), &reparsed, &error))
        << error;
    EXPECT_FALSE(reparsed.is_unix);
    EXPECT_EQ(reparsed.port, address.port);
  }
  return true;
}

TEST(ParseNetAddressTest, MutatedAddressesAreRejectedOrValid) {
  if (const char* replay = std::getenv("DPACK_FUZZ_REPLAY_SEED")) {
    RunAddressMutation(static_cast<uint64_t>(std::atoll(replay)));
    return;
  }
  constexpr uint64_t kBaseSeed = 9300;
  size_t accepted = 0;
  size_t iterations = AddressMutationIterations();
  std::printf("address mutation seeds %llu..%llu\n",
              static_cast<unsigned long long>(kBaseSeed),
              static_cast<unsigned long long>(kBaseSeed + iterations - 1));
  for (size_t i = 0; i < iterations; ++i) {
    accepted += RunAddressMutation(kBaseSeed + i) ? 1 : 0;
    if (testing::Test::HasFailure()) {
      return;  // The SCOPED_TRACE of the failing seed is in the log.
    }
  }
  // Both outcomes must occur, or the mutations never reach past the parser's checks.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, iterations);
}

TEST(NetFrontTest, ValidSubmitRoundTrips) {
  Harness harness;
  ExpectStillServing(harness, /*seq=*/7, /*task_id=*/1);
  EXPECT_EQ(harness.front.counters().submits_accepted, 1u);
  EXPECT_EQ(harness.front.counters().protocol_rejects, 0u);
}

TEST(NetFrontTest, AdmissionBoundMapsToRejectedCount) {
  GrantServiceConfig service_config;
  service_config.admission_queue_capacity = 2;
  Harness harness(NetFrontConfig{}, service_config);
  SubmitMsg msg;
  msg.seq = 9;
  msg.now = 0.0;
  for (int64_t id = 0; id < 5; ++id) {
    msg.entries.push_back(ValidEntry(id));
  }
  int fd = ConnectTo(harness);
  SendAll(fd, Framed(msg));
  std::string payload;
  ASSERT_TRUE(ReadReplyWhilePumping(harness.front, fd, &payload));
  ServiceMessage reply;
  std::string error;
  ASSERT_TRUE(DecodeMessage(payload, &reply, &error)) << error;
  const auto* submit_reply = std::get_if<SubmitReplyMsg>(&reply);
  ASSERT_NE(submit_reply, nullptr);
  // The same bounded-queue admission control as in-process Submit: 2 through, 3 refused.
  EXPECT_EQ(submit_reply->accepted, 2u);
  EXPECT_EQ(submit_reply->rejected, 3u);
  EXPECT_EQ(harness.service.counters().admission_rejects, 3u);
  EXPECT_EQ(harness.front.counters().submits_rejected, 3u);
  close(fd);
}

TEST(NetFrontTest, TruncatedFrameThenEofIsDiscardedNotInterpreted) {
  Harness harness;
  std::string frame = Framed(ServiceMessage(OneTaskSubmit(1, 5)));
  int fd = ConnectTo(harness);
  SendAll(fd, std::string_view(frame).substr(0, frame.size() / 2));
  close(fd);  // EOF with a partial frame buffered — the orderly-shutdown crash shape.
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  // The half frame never became a message: nothing submitted, nothing counted received.
  EXPECT_EQ(harness.front.counters().frames_received, 0u);
  EXPECT_EQ(harness.service.pending_count(), 0u);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, PayloadBitFlipPoisonsTheConnection) {
  Harness harness;
  std::string frame = Framed(ServiceMessage(OneTaskSubmit(1, 5)));
  frame[kFrameHeaderBytes + 3] ^= 0x10;  // One payload bit: the checksum must catch it.
  int fd = ConnectTo(harness);
  SendAll(fd, frame);
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  EXPECT_EQ(harness.front.counters().frames_received, 0u);
  EXPECT_EQ(harness.service.pending_count(), 0u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, ChecksumBitFlipPoisonsTheConnection) {
  Harness harness;
  std::string frame = Framed(ServiceMessage(OneTaskSubmit(1, 5)));
  frame[8] ^= 0x01;  // A bit of the stored checksum itself.
  int fd = ConnectTo(harness);
  SendAll(fd, frame);
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, OversizedLengthRejectedTheInstantTheHeaderArrives) {
  NetFrontConfig front_config;
  front_config.max_frame_bytes = 1024;
  Harness harness(front_config);
  // A header declaring a payload beyond the bound, with no payload behind it: the front
  // must reject on the header alone, never waiting for (or buffering toward) the claimed
  // gigabytes.
  char header[kFrameHeaderBytes];
  StoreU64Le(header, uint64_t{1} << 40);
  StoreU64Le(header + 8, 0);
  int fd = ConnectTo(harness);
  SendAll(fd, std::string_view(header, sizeof(header)));
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, WorkerProtocolMessageFromClientIsDropped) {
  Harness harness;
  int fd = ConnectTo(harness);
  SendAll(fd, Framed(ServiceMessage(HelloMsg{})));  // A worker message on the tenant edge.
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, UndecodablePayloadIsDropped) {
  Harness harness;
  std::string frame;
  AppendFrame(&frame, "not a service message");  // Valid frame, garbage message.
  int fd = ConnectTo(harness);
  SendAll(fd, frame);
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  // The frame itself was whole — it counts as received before decode rejects it.
  EXPECT_EQ(harness.front.counters().frames_received, 1u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, MalformedEntryDropsPeerBeforeAnySubmission) {
  Harness harness;
  SubmitMsg msg;
  msg.seq = 1;
  msg.now = 0.0;
  msg.entries.push_back(ValidEntry(1));
  msg.entries.push_back(ValidEntry(2));
  msg.entries[1].demand.resize(1);  // Wrong curve width: would crash the scheduler.
  int fd = ConnectTo(harness);
  SendAll(fd, Framed(ServiceMessage(msg)));
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  // Validation is all-or-nothing: the valid first entry must NOT have been submitted.
  EXPECT_EQ(harness.service.pending_count(), 0u);
  EXPECT_EQ(harness.front.counters().submits_accepted, 0u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, HostileEntryValuesAreRejected) {
  Harness harness;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<SubmitMsg::Entry> hostile;
  hostile.push_back(ValidEntry(1));
  hostile.back().demand[0] = nan;
  hostile.push_back(ValidEntry(2));
  hostile.back().demand[0] = -0.5;
  hostile.push_back(ValidEntry(3));
  hostile.back().weight = 0.0;
  hostile.push_back(ValidEntry(4));
  hostile.back().arrival_time = -1.0;
  hostile.push_back(ValidEntry(5));
  hostile.back().timeout = nan;
  hostile.push_back(ValidEntry(6));
  hostile.back().timeout = -2.0;
  hostile.push_back(ValidEntry(7));
  hostile.back().blocks = {99};  // Beyond the block population.
  hostile.push_back(ValidEntry(8));
  hostile.back().blocks = {1, 1};  // Duplicate: would double-charge block 1.
  hostile.push_back(ValidEntry(9));
  hostile.back().blocks = {2, 1};  // Out of order.
  hostile.push_back(ValidEntry(10));
  hostile.back().weight = inf;
  for (size_t i = 0; i < hostile.size(); ++i) {
    SubmitMsg msg;
    msg.seq = 1;
    msg.now = 0.0;
    msg.entries.push_back(hostile[i]);
    uint64_t disconnects_before = harness.front.counters().disconnects;
    int fd = ConnectTo(harness);
    SendAll(fd, Framed(ServiceMessage(msg)));
    ASSERT_TRUE(PumpUntil(harness.front, [&] {
      return harness.front.counters().disconnects == disconnects_before + 1;
    })) << "hostile entry " << i;
    EXPECT_EQ(harness.service.pending_count(), 0u) << "hostile entry " << i;
    close(fd);
  }
  EXPECT_EQ(harness.front.counters().protocol_rejects, hostile.size());
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/20);
}

TEST(NetFrontTest, TimeRegressionDropsPeer) {
  Harness harness;
  int fd = ConnectTo(harness);
  SubmitMsg first = OneTaskSubmit(1, 1);
  first.now = 5.0;
  SendAll(fd, Framed(ServiceMessage(first)));
  std::string payload;
  ASSERT_TRUE(ReadReplyWhilePumping(harness.front, fd, &payload));
  SubmitMsg regress = OneTaskSubmit(2, 2);
  regress.now = 3.0;  // Virtual time is daemon-global and monotone.
  SendAll(fd, Framed(ServiceMessage(regress)));
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  EXPECT_EQ(harness.service.pending_count(), 1u);  // Only the first submission landed.
  close(fd);
}

TEST(NetFrontTest, NanInstantDropsPeer) {
  Harness harness;
  SubmitMsg msg = OneTaskSubmit(1, 1);
  msg.now = std::numeric_limits<double>::quiet_NaN();  // NaN defeats < checks; reject.
  int fd = ConnectTo(harness);
  SendAll(fd, Framed(ServiceMessage(msg)));
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().protocol_rejects, 1u);
  EXPECT_EQ(harness.service.pending_count(), 0u);
  close(fd);
}

TEST(NetFrontTest, ConnectionCapRefusesTheOverflow) {
  NetFrontConfig front_config;
  front_config.max_connections = 2;
  Harness harness(front_config);
  int a = ConnectTo(harness);
  int b = ConnectTo(harness);
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().accepts == 2; }));
  int c = ConnectTo(harness);  // Over the cap: accepted then immediately closed (EOF).
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().protocol_rejects == 1; }));
  char buf[1];
  ssize_t n;
  do {
    harness.front.PollOnce();
    n = recv(c, buf, sizeof(buf), MSG_DONTWAIT);
  } while (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
  EXPECT_EQ(n, 0);  // Deterministic EOF, not a hang.
  close(a);
  close(b);
  close(c);
}

TEST(NetFrontTest, SlowLorisExhaustsTheProgressBudget) {
  NetFrontConfig front_config;
  front_config.progress_budget = 50;  // Small budget so the test is quick.
  Harness harness(front_config);
  std::string frame = Framed(ServiceMessage(OneTaskSubmit(1, 5)));
  int fd = ConnectTo(harness);
  // Half a frame, then silence: the connection holds a partial frame without progress and
  // must be disconnected once the budget runs out — it can never wedge the daemon.
  SendAll(fd, std::string_view(frame).substr(0, frame.size() / 2));
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().budget_disconnects == 1; }));
  EXPECT_EQ(harness.front.counters().disconnects, 1u);
  EXPECT_EQ(harness.service.pending_count(), 0u);
  close(fd);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontCrossProcessTest, ClientSigkilledMidFrameLeavesTheDaemonServing) {
  Harness harness;
  uint16_t port = harness.front.listener().address().port;
  pid_t child = SpawnChild([port]() -> int {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return 1;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return 2;
    SubmitMsg msg;
    msg.seq = 1;
    msg.entries.push_back(SubmitMsg::Entry{});
    std::string frame;
    AppendFrame(&frame, EncodeMessage(ServiceMessage(msg)));
    // Half the frame, then die cold — the daemon sees EOF with a partial buffer.
    send(fd, frame.data(), frame.size() / 2, MSG_NOSIGNAL);
    raise(SIGKILL);
    return 3;  // Unreachable.
  });
  ASSERT_TRUE(PumpUntil(harness.front,
                        [&] { return harness.front.counters().disconnects == 1; }));
  ChildStatus status = WaitChild(child);
  EXPECT_EQ(status.state, ChildState::kSignaled);
  EXPECT_EQ(status.term_signal, SIGKILL);
  EXPECT_EQ(harness.front.counters().frames_received, 0u);
  EXPECT_EQ(harness.service.pending_count(), 0u);
  ExpectStillServing(harness, /*seq=*/2, /*task_id=*/6);
}

TEST(NetFrontTest, ServeIdleBudgetBoundsAnOrphanedDaemon) {
  NetFrontConfig front_config;
  front_config.serve_idle_budget = 5;
  front_config.poll_sleep_us = 1;
  Harness harness(front_config);
  EXPECT_FALSE(harness.front.ServeUntilShutdown());  // No client ever arrives.
  EXPECT_FALSE(harness.front.shutdown_received());
}

// --- Remote equivalence: the socket edge must grant byte-identically to in-process runs --

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

ScenarioWorkload Workload(const std::string& name) {
  ScenarioWorkload workload = GenerateScenario(Pool(), ScenarioByName(name, kSeed));
  workload.sim.record_grant_trace = true;
  return workload;
}

SimResult ReferenceRun(const ScenarioWorkload& workload) {
  auto scheduler = std::make_unique<GreedyScheduler>(
      GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  return RunOnlineSimulation(std::move(scheduler), workload.tasks, workload.sim);
}

// Forks a --listen-style daemon serving the workload's block schedule on `socket_path` and
// returns once it is listening (so a client never waits out a connect retry). Exits 0 on
// a clean client Shutdown, 3 if the idle budget expired first.
pid_t SpawnDaemon(const std::string& socket_path, const ScenarioWorkload& workload,
                  ServiceConfig service_config, NetFrontConfig front_config = {}) {
  if (front_config.serve_idle_budget == 0) {
    front_config.serve_idle_budget = 400000;  // An orphaned daemon exits, never leaks.
  }
  int ready[2];
  EXPECT_EQ(pipe(ready), 0);
  SimConfig sim = workload.sim;
  pid_t daemon = SpawnChild([socket_path, sim, service_config, front_config, ready]() -> int {
    close(ready[0]);
    BlockManager blocks(Grid(), sim.eps_g, sim.delta_g);
    GrantServiceConfig config;
    config.service = service_config;
    config.admission_queue_capacity = sim.admission_queue_capacity;
    config.period = sim.period;
    config.unlock_steps = sim.unlock_steps;
    config.fair_share_n = sim.fair_share_n;
    GrantService service(GreedyMetric::kDpack, &blocks, config);
    std::vector<double> schedule = BlockArrivalSchedule(sim);
    size_t next_block = 0;
    NetAddress address;
    address.is_unix = true;
    address.path = socket_path;
    NetServiceFront front(&service, &blocks, Grid(), std::make_unique<NetListener>(address),
                          front_config, [&blocks, &schedule, &next_block](double now) {
                            while (next_block < schedule.size() &&
                                   schedule[next_block] <= now) {
                              blocks.AddBlock(schedule[next_block]);
                              ++next_block;
                            }
                          });
    char listening = 1;
    if (write(ready[1], &listening, 1) != 1) {
      return 4;
    }
    close(ready[1]);
    return front.ServeUntilShutdown() ? 0 : 3;
  });
  close(ready[1]);
  char listening = 0;
  EXPECT_EQ(read(ready[0], &listening, 1), 1) << "daemon died before listening";
  close(ready[0]);
  return daemon;
}

TEST(NetRemoteEquivalenceTest, RemoteTraceMatchesInProcessAcrossFleetShapesAndKills) {
  ScenarioWorkload workload = Workload("steady_poisson");
  SimResult reference = ReferenceRun(workload);
  ASSERT_FALSE(reference.grant_trace.empty());

  struct Case {
    const char* label;
    size_t workers;
    size_t shards;
    uint64_t kill_round;   // 0 = no worker kill.
    ServiceRecovery recovery;
  };
  const Case cases[] = {
      {"w2s2", 2, 2, 0, ServiceRecovery::kReassign},
      {"w3s6-kill-reassign", 3, 6, 4, ServiceRecovery::kReassign},
      {"w2s2-kill-respawn", 2, 2, 4, ServiceRecovery::kRespawn},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    std::string socket_path =
        testing::TempDir() + "/dpack_net_eq_" + c.label + ".sock";
    ServiceConfig service_config;
    service_config.num_workers = c.workers;
    service_config.num_shards = c.shards;
    service_config.kill_at_round = c.kill_round;
    service_config.kill_worker = 1;
    service_config.recovery = c.recovery;
    pid_t daemon = SpawnDaemon(socket_path, workload, service_config);

    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.Connect("unix:" + socket_path, &error)) << error;
    RemoteRunResult result;
    ASSERT_TRUE(RunRemoteWorkload(client, workload.tasks, workload.sim, &result, &error))
        << error;
    // The whole point: grants over the socket, through the fleet (kill included), are
    // byte-identical to the uninterrupted in-process engine.
    EXPECT_EQ(result.grant_trace, reference.grant_trace);
    EXPECT_EQ(result.submitted, workload.tasks.size());
    EXPECT_EQ(result.rejected, 0u);
    ASSERT_TRUE(client.SendShutdown(&error)) << error;
    client.Close();
    ChildStatus status = WaitChild(daemon);
    EXPECT_EQ(status.state, ChildState::kExited);
    EXPECT_EQ(status.exit_code, 0);
  }
}

// A deadline without a clock read: SIGALRM ends the test binary if the run has not finished
// after `seconds`. Healthy long-wait runs take milliseconds; ten lost wake-ups do not.
class AlarmDeadline {
 public:
  explicit AlarmDeadline(unsigned int seconds) { alarm(seconds); }
  ~AlarmDeadline() { alarm(0); }
  AlarmDeadline(const AlarmDeadline&) = delete;
  AlarmDeadline& operator=(const AlarmDeadline&) = delete;
};

// No lost wake-ups on the socket edge. The front, the client and the fleet may each wait
// two seconds per iteration, so one request whose bytes fail to wake their reader stalls
// the run by two seconds, and ten such stalls fail the test; sleep-polling at this setting
// would need two such waits per request, many minutes in all. Waking on arrival, the run
// takes milliseconds.
TEST(NetRemoteEquivalenceTest, TwoSecondWaitsStillAnswerEveryRequestOnArrival) {
  AlarmDeadline deadline(20);
  ScenarioWorkload workload = Workload("steady_poisson");
  SimResult reference = ReferenceRun(workload);
  constexpr unsigned int kLongWaitUs = 2'000'000;
  std::string socket_path = testing::TempDir() + "/dpack_net_long_waits.sock";
  ServiceConfig service_config;
  service_config.poll_sleep_us = kLongWaitUs;
  service_config.stall_budget = 1000;
  NetFrontConfig front_config;
  front_config.poll_sleep_us = kLongWaitUs;
  front_config.serve_idle_budget = 30;
  pid_t daemon = SpawnDaemon(socket_path, workload, service_config, front_config);

  NetClientConfig client_config;
  client_config.poll_sleep_us = kLongWaitUs;
  client_config.io_budget = 30;
  ServiceClient client(client_config);
  std::string error;
  ASSERT_TRUE(client.Connect("unix:" + socket_path, &error)) << error;
  RemoteRunResult result;
  ASSERT_TRUE(RunRemoteWorkload(client, workload.tasks, workload.sim, &result, &error))
      << error;
  EXPECT_EQ(result.grant_trace, reference.grant_trace);
  EXPECT_GE(client.counters().frames_sent, 50u);
  EXPECT_EQ(client.counters().frames_received, client.counters().frames_sent);
  ASSERT_TRUE(client.SendShutdown(&error)) << error;
  client.Close();
  ChildStatus status = WaitChild(daemon);
  EXPECT_EQ(status.state, ChildState::kExited);
  EXPECT_EQ(status.exit_code, 0);
}

}  // namespace
}  // namespace dpack
