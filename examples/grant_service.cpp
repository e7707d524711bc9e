// Grant service CLI: run a registered scenario through the grant service (admission control
// over the online driver and the incremental engine, scoring in process) and prove the
// grant trace byte-identical to the sim driver's in-process engine.
//
//   example_grant_service list
//   example_grant_service <scenario> [--seed N] [--metric dpack|dpf|area|fcfs]
//                         [--differential]
//
// Remote client edge (src/service/net_transport.h): the same scenario driven over a
// checksummed socket instead of in-process calls, for the CI remote-client kill leg.
//
//   example_grant_service <scenario> --listen unix:/path|tcp:PORT [--serve-idle-budget N]
//   example_grant_service <scenario> --connect unix:/path|tcp:PORT
//                         [--differential] [--shutdown]
//   example_grant_service <scenario> --kill-client unix:/path|tcp:PORT
//
// --listen serves the scenario's block-arrival schedule as a socket daemon until a client
// sends Shutdown (exit 0) or the idle budget expires (exit 1). --connect replays the
// scenario's workload remotely; --shutdown stops the daemon afterwards. --kill-client
// connects, writes a deliberately unfinished frame, and SIGKILLs itself mid-submission —
// the CI leg proving a vanishing client cannot wedge the daemon. With --differential the
// run exits nonzero unless its grants are byte-identical to an uninterrupted in-process
// RunOnlineSimulation. Any other flag is a usage error (exit 2).

#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/frame.h"
#include "src/common/sleep.h"
#include "src/dpack/dpack.h"

namespace {

using namespace dpack;  // Example code; the library itself never does this.

constexpr char kUsage[] =
    "example_grant_service <scenario> [--seed N] [--metric dpack|dpf|area|fcfs]\n"
    "                      [--differential] [--listen ADDR [--serve-idle-budget N]]\n"
    "                      [--connect ADDR [--shutdown]] [--kill-client ADDR]\n"
    "  ADDR is unix:<path> or tcp:<port> (loopback)";

int ListScenarios() {
  std::printf("registered scenarios (see src/README.md for the stress-axis catalogue):\n");
  for (const std::string& name : ScenarioRegistryNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

GreedyMetric ParseMetric(const std::string& value) {
  if (value == "dpack") return GreedyMetric::kDpack;
  if (value == "dpf") return GreedyMetric::kDpf;
  if (value == "area") return GreedyMetric::kArea;
  if (value == "fcfs") return GreedyMetric::kFcfs;
  std::fprintf(stderr, "unknown metric '%s' (want dpack|dpf|area|fcfs)\n", value.c_str());
  std::exit(2);
}

void PrintNetCounters(const char* who, const NetCounters& c) {
  std::printf(
      "  %s net: accepts %llu, disconnects %llu (budget %llu), frames %llu sent / "
      "%llu received, bytes %llu / %llu,\n"
      "      protocol rejects %llu, submits %llu accepted / %llu rejected, cycles %llu,\n"
      "      spin waits %llu (%llu ended in the spin)\n",
      who, static_cast<unsigned long long>(c.accepts),
      static_cast<unsigned long long>(c.disconnects),
      static_cast<unsigned long long>(c.budget_disconnects),
      static_cast<unsigned long long>(c.frames_sent),
      static_cast<unsigned long long>(c.frames_received),
      static_cast<unsigned long long>(c.bytes_sent),
      static_cast<unsigned long long>(c.bytes_received),
      static_cast<unsigned long long>(c.protocol_rejects),
      static_cast<unsigned long long>(c.submits_accepted),
      static_cast<unsigned long long>(c.submits_rejected),
      static_cast<unsigned long long>(c.cycles_run),
      static_cast<unsigned long long>(c.spin_waits),
      static_cast<unsigned long long>(c.spin_hits));
}

// Prints a replay's totals; returns the number of grants.
uint64_t PrintReplay(const char* who, const ReplayResult& result) {
  uint64_t granted = 0;
  for (const std::vector<TaskId>& cycle : result.grant_trace) {
    granted += cycle.size();
  }
  std::printf("%s run: %zu cycles, %llu granted, %llu submitted (%llu accepted, %llu rejected)\n",
              who, result.cycles_run, static_cast<unsigned long long>(granted),
              static_cast<unsigned long long>(result.submitted),
              static_cast<unsigned long long>(result.accepted),
              static_cast<unsigned long long>(result.rejected));
  return granted;
}

// --differential: the replay's grant trace must be byte-identical to an uninterrupted
// in-process RunOnlineSimulation of the same workload. Returns the exit code.
int CheckAgainstEngine(GreedyMetric metric, const ScenarioWorkload& workload,
                       const ReplayResult& result, uint64_t granted) {
  auto reference = std::make_unique<GreedyScheduler>(metric, GreedySchedulerOptions{});
  SimResult reference_result =
      RunOnlineSimulation(std::move(reference), workload.tasks, workload.sim);
  if (result.grant_trace != reference_result.grant_trace) {
    size_t cycle = 0;
    while (cycle < result.grant_trace.size() && cycle < reference_result.grant_trace.size() &&
           result.grant_trace[cycle] == reference_result.grant_trace[cycle]) {
      ++cycle;
    }
    std::fprintf(stderr,
                 "FAIL: grant trace diverged from the in-process engine at cycle %zu "
                 "(service %zu cycles, reference %zu cycles)\n",
                 cycle, result.grant_trace.size(), reference_result.grant_trace.size());
    return 1;
  }
  if (granted != reference_result.metrics.allocated()) {
    std::fprintf(stderr, "FAIL: allocated %llu vs reference %llu\n",
                 static_cast<unsigned long long>(granted),
                 static_cast<unsigned long long>(reference_result.metrics.allocated()));
    return 1;
  }
  std::printf("OK: grant trace byte-identical to the in-process engine (%zu cycles)\n",
              reference_result.grant_trace.size());
  return 0;
}

// No socket mode: replay the scenario through a GrantService in this process.
int RunInProcess(GreedyMetric metric, const ScenarioWorkload& workload, bool differential) {
  const SimConfig& sim = workload.sim;
  BlockManager blocks(sim.grid != nullptr ? sim.grid : AlphaGrid::Default(), sim.eps_g,
                      sim.delta_g);
  GrantService service(metric, &blocks, OnlineSchedulerConfigFor(sim));
  LocalServiceFront front(&service, &blocks, sim);
  ReplayResult result;
  std::string error;
  if (!ReplayWorkload(front, workload.tasks, sim, &result, &error)) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }
  uint64_t granted = PrintReplay("service", result);
  std::printf("  pending %zu, admission rejects %llu\n", service.pending_count(),
              static_cast<unsigned long long>(service.counters().admission_rejects));
  return differential ? CheckAgainstEngine(metric, workload, result, granted) : 0;
}

// --listen: serve the scenario as a socket daemon — the scenario supplies the block-arrival
// schedule (applied through the advance hook as client request instants pass each arrival)
// while the tasks come from remote clients. Exits 0 on a clean client Shutdown.
int RunDaemon(const std::string& address_text, GreedyMetric metric,
              const ScenarioWorkload& workload, uint64_t serve_idle_budget) {
  NetAddress address;
  std::string error;
  if (!ParseNetAddress(address_text, &address, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const SimConfig& sim = workload.sim;
  AlphaGridPtr grid = sim.grid != nullptr ? sim.grid : AlphaGrid::Default();
  BlockManager blocks(grid, sim.eps_g, sim.delta_g);
  GrantService service(metric, &blocks, OnlineSchedulerConfigFor(sim));
  std::printf("daemon: pid %lld\n", static_cast<long long>(getpid()));

  BlockArrivalFeed feed(sim);
  NetFrontConfig front_config;
  front_config.serve_idle_budget = serve_idle_budget;
  NetServiceFront front(&service, &blocks, grid, std::make_unique<NetListener>(address),
                        front_config,
                        [&blocks, &feed](double now) { feed.AdvanceTo(now, blocks); });
  std::printf("daemon: listening on %s\n", front.listener().address_string().c_str());
  std::fflush(stdout);

  bool clean_shutdown = front.ServeUntilShutdown();
  std::printf("daemon: served %llu remote cycles, %llu granted, %zu blocks arrived\n",
              static_cast<unsigned long long>(front.counters().cycles_run),
              static_cast<unsigned long long>(service.metrics().allocated()), feed.arrived());
  PrintNetCounters("daemon", front.counters());
  if (!clean_shutdown) {
    std::fprintf(stderr, "FAIL: serve idle budget expired without a client Shutdown\n");
    return 1;
  }
  return 0;
}

// --connect: replay the scenario's workload against a --listen daemon of the same scenario;
// with --shutdown the daemon is stopped afterwards.
int RunRemoteClient(const std::string& address_text, GreedyMetric metric,
                    const ScenarioWorkload& workload, bool differential, bool shutdown) {
  ServiceClient client;
  std::string error;
  if (!client.Connect(address_text, &error)) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }
  std::printf("client: pid %lld connected to %s\n", static_cast<long long>(getpid()),
              address_text.c_str());
  ReplayResult result;
  if (!ReplayWorkload(client, workload.tasks, workload.sim, &result, &error)) {
    std::fprintf(stderr, "FAIL: remote run: %s\n", error.c_str());
    return 1;
  }
  uint64_t granted = PrintReplay("remote", result);
  PrintNetCounters("client", client.counters());
  int exit_code = differential ? CheckAgainstEngine(metric, workload, result, granted) : 0;
  if (shutdown) {
    if (!client.SendShutdown(&error)) {
      std::fprintf(stderr, "FAIL: shutdown: %s\n", error.c_str());
      return 1;
    }
    std::printf("client: sent Shutdown\n");
  }
  return exit_code;
}

// --kill-client: connect, write the first half of a well-formed Submit frame, and SIGKILL
// ourselves mid-submission. The daemon must discard the partial bytes on the EOF and keep
// serving — the CI remote-client kill leg asserts exactly that.
int RunKillClient(const std::string& address_text) {
  NetAddress address;
  std::string error;
  if (!ParseNetAddress(address_text, &address, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  int fd = -1;
  for (int attempt = 0; attempt < 20000 && fd < 0; ++attempt) {
    fd = ConnectOnce(address);
    if (fd < 0) {
      if (errno != ECONNREFUSED && errno != ENOENT && errno != EINTR) break;
      SleepFullMicros(500);  // The daemon may still be binding.
    }
  }
  if (fd < 0) {
    std::fprintf(stderr, "FAIL: kill-client cannot connect to %s: %s\n",
                 address_text.c_str(), std::strerror(errno));
    return 1;
  }
  SubmitMsg msg;
  msg.seq = 1;  // Content is irrelevant: the frame never finishes.
  std::string frame;
  AppendFrame(&frame, EncodeMessage(ServiceMessage(msg)));
  size_t half = frame.size() / 2;
  ssize_t sent = send(fd, frame.data(), half, MSG_NOSIGNAL);
  std::printf("kill-client: pid %lld sent %zd/%zu frame bytes, raising SIGKILL\n",
              static_cast<long long>(getpid()), sent, frame.size());
  std::fflush(stdout);
  raise(SIGKILL);
  return 1;  // Unreachable.
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "list" || std::string(argv[1]) == "--help") {
    return ListScenarios();
  }
  std::string name = argv[1];
  uint64_t seed = 1;
  GreedyMetric metric = GreedyMetric::kDpack;
  bool differential = false;
  std::string listen_addr, connect_addr, kill_client_addr;
  uint64_t serve_idle_budget = 0;
  bool send_shutdown = false;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--differential") {
      differential = true;
      continue;
    }
    if (flag == "--shutdown") {
      send_shutdown = true;
      continue;
    }
    if (flag != "--seed" && flag != "--metric" && flag != "--listen" && flag != "--connect" &&
        flag != "--kill-client" && flag != "--serve-idle-budget") {
      std::fprintf(stderr, "unknown flag '%s'\n%s\n", flag.c_str(), kUsage);
      return 2;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag '%s' requires a value\n", flag.c_str());
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--seed") {
      seed = ParseUint64Arg(argv[0], value, "--seed", kUsage);
    } else if (flag == "--metric") {
      metric = ParseMetric(value);
    } else if (flag == "--listen") {
      listen_addr = value;
    } else if (flag == "--connect") {
      connect_addr = value;
    } else if (flag == "--kill-client") {
      kill_client_addr = value;
    } else {
      serve_idle_budget = ParseUint64Arg(argv[0], value, "--serve-idle-budget", kUsage);
    }
  }
  int socket_modes = (listen_addr.empty() ? 0 : 1) + (connect_addr.empty() ? 0 : 1) +
                     (kill_client_addr.empty() ? 0 : 1);
  if (socket_modes > 1) {
    std::fprintf(stderr, "--listen, --connect, and --kill-client are mutually exclusive\n");
    return 2;
  }
  if (!kill_client_addr.empty()) {
    return RunKillClient(kill_client_addr);  // Needs no workload: it dies mid-frame.
  }

  AlphaGridPtr grid = AlphaGrid::Default();
  CurvePool pool(grid, BlockCapacityCurve(grid, 10.0, 1e-7));
  ScenarioWorkload workload = GenerateScenario(pool, ScenarioByName(name, seed));
  workload.sim.record_grant_trace = true;

  std::printf("scenario %s seed %llu: %zu tasks, %zu blocks, metric %s\n", name.c_str(),
              static_cast<unsigned long long>(seed), workload.tasks.size(),
              workload.sim.block_arrival_times.size(),
              metric == GreedyMetric::kDpack  ? "dpack"
              : metric == GreedyMetric::kDpf  ? "dpf"
              : metric == GreedyMetric::kArea ? "area"
                                              : "fcfs");
  if (!listen_addr.empty()) {
    return RunDaemon(listen_addr, metric, workload, serve_idle_budget);
  }
  if (!connect_addr.empty()) {
    return RunRemoteClient(connect_addr, metric, workload, differential, send_shutdown);
  }
  return RunInProcess(metric, workload, differential);
}
