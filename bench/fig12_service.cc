// Grant service over its socket edge (beyond the paper): each leg forks a daemon onto a Unix
// socket — a GrantService scoring in process behind a NetServiceFront — and drives a
// registry scenario through it from this process as a remote tenant (src/service/client.h).
// Each leg self-checks that the remotely observed grant trace is byte-identical to the
// in-process engine before reporting anything: a counter dump over a wrong schedule would
// gate CI on garbage.
//
// --json <path> emits the client's per-cycle frame/byte counters in google-benchmark's
// {"benchmarks": [...]} shape for scripts/check_bench_regression.py. Every gated field is
// an exact function of the fixed workload and the wire schema (doubles travel as
// fixed-width bits) — never timing.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/subprocess.h"

namespace dpack::bench {
namespace {

constexpr uint64_t kScenarioSeed = 21;

constexpr const char* kNetLegs[] = {"steady_poisson", "bursty_hotspot"};

std::string NetLegName(const std::string& scenario) {
  return "fig12_service_net/" + scenario + "/healthy";
}

struct NetLegResult {
  NetCounters client;
  size_t cycles = 0;
  double wall_ms = 0.0;
  bool trace_ok = false;
};

NetLegResult RunNetLeg(const std::string& scenario, size_t index) {
  AlphaGridPtr grid = AlphaGrid::Default();
  CurvePool pool(grid, BlockCapacityCurve(grid, kEpsG, kDeltaG));
  ScenarioWorkload workload = GenerateScenario(pool, ScenarioByName(scenario, kScenarioSeed));
  workload.sim.record_grant_trace = true;

  auto reference_scheduler = std::make_unique<GreedyScheduler>(
      GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  SimResult reference =
      RunOnlineSimulation(std::move(reference_scheduler), workload.tasks, workload.sim);

  const std::string socket_path =
      "/tmp/dpack_fig12_net_" + std::to_string(getpid()) + "_" + std::to_string(index) +
      ".sock";
  SimConfig sim = workload.sim;
  pid_t daemon = SpawnChild([socket_path, sim]() -> int {
    AlphaGridPtr child_grid = AlphaGrid::Default();
    BlockManager blocks(child_grid, sim.eps_g, sim.delta_g);
    GrantService service(GreedyMetric::kDpack, &blocks, GrantServiceConfigFor(sim));
    BlockArrivalFeed feed(sim);
    NetAddress address;
    address.is_unix = true;
    address.path = socket_path;
    NetFrontConfig front_config;
    front_config.serve_idle_budget = 400000;  // An orphaned daemon exits, never leaks.
    NetServiceFront front(&service, &blocks, child_grid,
                          std::make_unique<NetListener>(address), front_config,
                          [&blocks, &feed](double now) { feed.AdvanceTo(now, blocks); });
    return front.ServeUntilShutdown() ? 0 : 3;
  });

  NetLegResult result;
  auto start = std::chrono::steady_clock::now();
  ServiceClient client;
  std::string error;
  ReplayResult remote;
  bool ran = client.Connect("unix:" + socket_path, &error) &&
             ReplayWorkload(client, workload.tasks, workload.sim, &remote, &error);
  if (ran) {
    ran = client.SendShutdown(&error);
  }
  auto end = std::chrono::steady_clock::now();
  result.client = client.counters();
  client.Close();
  ChildStatus status = WaitChild(daemon);

  result.cycles = remote.cycles_run;
  result.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  result.trace_ok = ran && remote.grant_trace == reference.grant_trace &&
                    status.state == ChildState::kExited && status.exit_code == 0;
  if (!result.trace_ok) {
    std::fprintf(stderr,
                 "EQUIVALENCE VIOLATION: %s — %s\n", NetLegName(scenario).c_str(),
                 !ran ? error.c_str()
                      : "remote grants differ from the in-process engine (or the daemon "
                        "exited uncleanly)");
  }
  return result;
}

std::vector<std::pair<std::string, double>> GatedNetCounters(const NetLegResult& result) {
  double cycles = static_cast<double>(result.cycles);
  const NetCounters& c = result.client;
  return {
      {"net_frames_sent_per_cycle", static_cast<double>(c.frames_sent) / cycles},
      {"net_frames_received_per_cycle", static_cast<double>(c.frames_received) / cycles},
      {"net_bytes_sent_per_cycle", static_cast<double>(c.bytes_sent) / cycles},
      {"net_bytes_received_per_cycle", static_cast<double>(c.bytes_received) / cycles},
  };
}

bool RunTable() {
  CsvTable net_table({"leg", "cycles", "frames_sent/cycle", "frames_recv/cycle",
                      "bytes_sent/cycle", "bytes_recv/cycle", "wall_ms"});
  bool ok = true;
  for (size_t i = 0; i < std::size(kNetLegs); ++i) {
    NetLegResult result = RunNetLeg(kNetLegs[i], i);
    ok = result.trace_ok && ok;
    double cycles = static_cast<double>(result.cycles);
    net_table.NewRow()
        .Add(NetLegName(kNetLegs[i]))
        .Add(result.cycles)
        .Add(FormatDouble(static_cast<double>(result.client.frames_sent) / cycles))
        .Add(FormatDouble(static_cast<double>(result.client.frames_received) / cycles))
        .Add(FormatDouble(static_cast<double>(result.client.bytes_sent) / cycles))
        .Add(FormatDouble(static_cast<double>(result.client.bytes_received) / cycles))
        .Add(FormatDouble(result.wall_ms));
  }
  net_table.Print("Fig. 12: remote-client legs over the checksummed socket edge");
  std::printf("equivalence: %s — every leg %s the in-process grant trace\n",
              ok ? "OK" : "VIOLATED", ok ? "matches" : "DIVERGES FROM");
  return ok;
}

bool DumpCountersJson(const std::string& path) {
  std::vector<BenchJsonEntry> entries;
  bool ok = true;
  for (size_t i = 0; i < std::size(kNetLegs); ++i) {
    NetLegResult result = RunNetLeg(kNetLegs[i], i);
    ok = result.trace_ok && ok;
    BenchJsonEntry entry;
    entry.name = NetLegName(kNetLegs[i]);
    entry.fields.push_back({"wall_ms", result.wall_ms});
    for (const auto& field : GatedNetCounters(result)) {
      entry.fields.push_back(field);
    }
    entries.push_back(std::move(entry));
  }
  return WriteBenchCountersJson(path, entries) && ok;
}

std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return "";
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Banner("Fig. 12: grant service over the socket edge, remote-client legs",
         "beyond the paper");
  std::string json_path = ParseJsonPath(argc, argv);
  if (!json_path.empty()) {
    return DumpCountersJson(json_path) ? 0 : 1;
  }
  return RunTable() ? 0 : 1;
}
