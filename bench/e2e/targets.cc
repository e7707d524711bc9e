// The three serving stacks the benchmark replays streams through, and the remote daemon.
//
// The daemon is this binary re-executed with --daemon (fork + exec): a fresh process whose
// memory holds only what the daemon builds, so its peak RSS is its own. It reads the
// stream's block-arrival instants and scheduling parameters from one inherited pipe, runs
// the stock NetServiceFront::ServeUntilShutdown loop over a GrantService with the default
// fleet, and when the client asks it to shut down sends a summary back over another. The
// only bench code inside the serve loop is the block-arrival hook, which is also where the
// daemon observes ScheduleBatch time and queue depth when traced.

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "bench/e2e/e2e.h"
#include "src/common/subprocess.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/service/client.h"
#include "src/service/grant_service.h"

namespace dpack::e2e {

namespace {

// Idle polls (200 us each) before an orphaned daemon gives up: about 20 s.
constexpr uint64_t kDaemonIdlePolls = 100000;

GrantServiceConfig ServiceConfigFor(const SimConfig& sim) {
  GrantServiceConfig config;  // The default fleet: two forked scoring workers.
  config.admission_queue_capacity = sim.admission_queue_capacity;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  return config;
}

// Stands in for a snapshot that could not be taken (the queue did not drain).
CodecSample FailedCodec() {
  CodecSample sample;
  sample.ok = false;
  return sample;
}

OnlineSchedulerConfig OnlineConfigFor(const SimConfig& sim) {
  OnlineSchedulerConfig config;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  config.admission_queue_capacity = sim.admission_queue_capacity;
  return config;
}

// Block arrivals up to an instant — the rule the sim driver's event order and the daemon's
// advance hook share (blocks first, then that instant's tasks, then its cycle).
class BlockFeed {
 public:
  explicit BlockFeed(const SimConfig& sim) : times_(BlockArrivalSchedule(sim)) {}

  size_t AdvanceTo(double now, BlockManager& blocks) {
    size_t added = 0;
    while (next_ < times_.size() && times_[next_] <= now) {
      blocks.AddBlock(times_[next_]);
      ++next_;
      ++added;
    }
    return added;
  }

 private:
  std::vector<double> times_;
  size_t next_ = 0;
};

// The cluster-state part of every report, in process or in the daemon: grants, evictions,
// retirements, the budget check and, traced, the snapshot codec. Traced passes drain the
// queue first, so a snapshot without it is complete (GrantService keeps its queue private).
bool ReportClusterState(const BlockManager& blocks, const AllocationMetrics& metrics,
                        size_t pending, const SimConfig& sim, double now, bool traced,
                        LayerReport* report) {
  report->cycles = metrics.cycle_runtime_seconds().count();
  report->allocated = metrics.allocated();
  report->evicted = metrics.evicted();
  report->retired_blocks = blocks.retired_count();
  report->blocks_over_budget = BlocksOverBudget(blocks);
  if (traced) {
    report->codec = FailedCodec();
    if (pending == 0) {
      report->codec = MeasureSnapshotCodec(blocks, metrics, sim, now);
    }
  }
  return report->blocks_over_budget == 0 && (!report->codec || report->codec->ok);
}

// The engine (OnlineScheduler) and the service (GrantService) take the same calls, so one
// target drives either; Finish reads the layer each one runs below the call.
template <typename Front>
class InProcessTarget final : public Target {
 public:
  explicit InProcessTarget(const SimConfig& sim)
      : sim_(sim), blocks_(sim.grid, sim.eps_g, sim.delta_g), feed_(sim), front_(MakeFront()) {}

  size_t Advance(double now) override {
    now_ = now;
    return feed_.AdvanceTo(now, blocks_);
  }

  bool Submit(double /*now*/, std::vector<Task>& batch, std::string* error) override {
    for (Task& task : batch) {
      if (!front_.Submit(std::move(task))) {
        *error = "admission refused a task";
        return false;
      }
    }
    return true;
  }

  bool RunCycle(double now, std::vector<TaskId>* granted, std::string* /*error*/) override {
    front_.RunCycle(now);
    *granted = front_.last_granted();
    return true;
  }

  double BatchSeconds() const override { return front_.metrics().total_runtime_seconds(); }
  double Pending() const override { return static_cast<double>(front_.pending_count()); }

  bool Finish(bool traced, LayerReport* report, std::string* error) override {
    if constexpr (std::is_same_v<Front, GrantService>) {
      front_.scheduler().Shutdown();  // Reaps the workers, so their CPU time is countable.
      report->service = front_.counters();
    } else if (const ScheduleContextStats* stats = front_.context_stats()) {
      report->engine = *stats;
    }
    if (!ReportClusterState(blocks_, front_.metrics(), front_.pending_count(), sim_, now_,
                            traced, report)) {
      *error = "block budget or snapshot codec check failed";
      return false;
    }
    return true;
  }

 private:
  Front MakeFront() {
    if constexpr (std::is_same_v<Front, GrantService>) {
      return GrantService(GreedyMetric::kDpack, &blocks_, ServiceConfigFor(sim_));
    } else {
      return OnlineScheduler(std::make_unique<GreedyScheduler>(
                                 GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05}),
                             &blocks_, OnlineConfigFor(sim_));
    }
  }

  SimConfig sim_;
  BlockManager blocks_;
  BlockFeed feed_;
  Front front_;
  double now_ = 0.0;
};

// --- Remote: the client side, and the daemon's summary over the pipe -------------------------

// The daemon's LayerReport on the report pipe: this fixed-size part, then the sample
// vectors.
struct DaemonSummary {
  ServiceCounters service;
  NetCounters front;
  uint64_t cycles = 0;
  uint64_t allocated = 0;
  uint64_t evicted = 0;
  uint64_t retired_blocks = 0;
  uint64_t blocks_over_budget = 0;
  uint64_t has_codec = 0;
  uint64_t codec_ok = 0;
  uint64_t codec_bytes = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double workers_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t lengths[5] = {};  // batch_us, block_add_us, pending, encode_us, decode_us.
};
static_assert(std::is_trivially_copyable_v<DaemonSummary>);

// What the daemon needs of the stream's SimConfig; the grid orders and the block-arrival
// instants follow it.
struct DaemonConfig {
  double eps_g = 0.0;
  double delta_g = 0.0;
  double period = 0.0;
  int64_t unlock_steps = 0;
  int64_t fair_share_n = 0;
  uint64_t admission_queue_capacity = 0;
  uint64_t orders = 0;
  uint64_t blocks = 0;
};
static_assert(std::is_trivially_copyable_v<DaemonConfig>);

bool WriteDaemonConfig(int fd, const SimConfig& sim) {
  std::vector<double> block_times = BlockArrivalSchedule(sim);
  const std::vector<double>& orders = sim.grid->orders();
  DaemonConfig config;
  config.eps_g = sim.eps_g;
  config.delta_g = sim.delta_g;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  config.admission_queue_capacity = sim.admission_queue_capacity;
  config.orders = orders.size();
  config.blocks = block_times.size();
  return WriteAll(fd, &config, sizeof(config)) &&
         WriteAll(fd, orders.data(), orders.size() * sizeof(double)) &&
         WriteAll(fd, block_times.data(), block_times.size() * sizeof(double));
}

bool ReadDaemonConfig(int fd, SimConfig* sim) {
  DaemonConfig config;
  if (!ReadAll(fd, &config, sizeof(config)) || config.orders == 0 || config.orders > 1024 ||
      config.blocks == 0 || config.blocks > (uint64_t{1} << 24)) {
    return false;
  }
  std::vector<double> orders(config.orders);
  sim->block_arrival_times.resize(config.blocks);
  if (!ReadAll(fd, orders.data(), orders.size() * sizeof(double)) ||
      !ReadAll(fd, sim->block_arrival_times.data(), config.blocks * sizeof(double))) {
    return false;
  }
  sim->grid = AlphaGrid::Create(std::move(orders));
  sim->eps_g = config.eps_g;
  sim->delta_g = config.delta_g;
  sim->period = config.period;
  sim->unlock_steps = config.unlock_steps;
  sim->fair_share_n = config.fair_share_n;
  sim->admission_queue_capacity = config.admission_queue_capacity;
  sim->num_blocks = config.blocks;
  return true;
}

// The per-request sample vectors, in DaemonSummary::lengths order; the codec's exist only
// when the report has a codec sample.
std::vector<std::vector<double>*> SummaryVectors(LayerReport& report) {
  std::vector<std::vector<double>*> vectors = {&report.batch_us, &report.block_add_us,
                                               &report.pending};
  if (report.codec) {
    vectors.push_back(&report.codec->encode_us);
    vectors.push_back(&report.codec->decode_us);
  }
  return vectors;
}

bool WriteSummary(int fd, LayerReport& report) {
  DaemonSummary summary;
  summary.service = report.service;
  summary.front = report.front;
  summary.cycles = report.cycles;
  summary.allocated = report.allocated;
  summary.evicted = report.evicted;
  summary.retired_blocks = report.retired_blocks;
  summary.blocks_over_budget = report.blocks_over_budget;
  summary.has_codec = report.codec ? 1 : 0;
  summary.codec_ok = report.codec && report.codec->ok ? 1 : 0;
  summary.codec_bytes = report.codec ? report.codec->bytes : 0;
  summary.cpu_s = report.scheduler_cpu_s;
  summary.wall_s = report.scheduler_wall_s;
  summary.workers_cpu_s = report.workers_cpu_s;
  summary.peak_rss_mb = report.peak_rss_mb;
  std::vector<std::vector<double>*> vectors = SummaryVectors(report);
  for (size_t i = 0; i < vectors.size(); ++i) {
    summary.lengths[i] = vectors[i]->size();
  }
  bool ok = WriteAll(fd, &summary, sizeof(summary));
  for (const std::vector<double>* values : vectors) {
    ok = ok && WriteAll(fd, values->data(), values->size() * sizeof(double));
  }
  return ok;
}

bool ReadSummary(int fd, LayerReport* report) {
  DaemonSummary summary;
  if (!ReadAll(fd, &summary, sizeof(summary))) {
    return false;
  }
  report->service = summary.service;
  report->front = summary.front;
  report->cycles = summary.cycles;
  report->allocated = summary.allocated;
  report->evicted = summary.evicted;
  report->retired_blocks = summary.retired_blocks;
  report->blocks_over_budget = summary.blocks_over_budget;
  report->scheduler_cpu_s = summary.cpu_s;
  report->scheduler_wall_s = summary.wall_s;
  report->workers_cpu_s = summary.workers_cpu_s;
  report->peak_rss_mb = summary.peak_rss_mb;
  if (summary.has_codec != 0) {
    report->codec = CodecSample();
    report->codec->ok = summary.codec_ok != 0;
    report->codec->bytes = summary.codec_bytes;
  }
  std::vector<std::vector<double>*> vectors = SummaryVectors(*report);
  for (size_t i = 0; i < vectors.size(); ++i) {
    if (summary.lengths[i] > (uint64_t{1} << 26)) {
      return false;
    }
    vectors[i]->resize(summary.lengths[i]);
    if (!ReadAll(fd, vectors[i]->data(), vectors[i]->size() * sizeof(double))) {
      return false;
    }
  }
  return true;
}

class RemoteTarget final : public Target {
 public:
  explicit RemoteTarget(std::string socket_path) : socket_path_(std::move(socket_path)) {}

  ~RemoteTarget() override {
    if (daemon_ > 0) {  // A pass that failed midway: never leave the daemon behind.
      KillChild(daemon_, SIGKILL);
      WaitChild(daemon_);
      unlink(socket_path_.c_str());
    }
    if (report_fd_ >= 0) {
      close(report_fd_);
    }
  }

  bool Spawn(const RemoteOptions& options, const SimConfig& sim, std::string* error) {
    int config_fds[2];
    int report_fds[2];
    if (pipe(config_fds) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    if (pipe(report_fds) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      close(config_fds[0]);
      close(config_fds[1]);
      return false;
    }
    std::vector<std::string> args = {options.exe,
                                     "--daemon",
                                     socket_path_,
                                     options.traced ? "1" : "0",
                                     std::to_string(config_fds[0]),
                                     std::to_string(report_fds[1]),
                                     options.trace_path.empty() ? "-" : options.trace_path};
    std::fflush(nullptr);  // The child must not inherit (and later repeat) buffered output.
    daemon_ = SpawnChild([&args, &config_fds, &report_fds]() -> int {
      close(config_fds[1]);
      close(report_fds[0]);
      std::vector<char*> argv;
      for (std::string& arg : args) {
        argv.push_back(arg.data());
      }
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      return 127;
    });
    close(config_fds[0]);
    close(report_fds[1]);
    report_fd_ = report_fds[0];
    bool sent = WriteDaemonConfig(config_fds[1], sim);
    close(config_fds[1]);
    if (!sent) {
      *error = "cannot send the daemon its configuration";
    }
    return sent;
  }

  bool Connect(std::string* error) override {
    return client_.Connect("unix:" + socket_path_, error);
  }

  size_t Advance(double /*now*/) override { return 0; }  // The daemon's hook does it.

  bool Submit(double now, std::vector<Task>& batch, std::string* error) override {
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    if (!client_.Submit(now, batch, &accepted, &rejected, error)) {
      return false;
    }
    if (rejected != 0) {
      *error = "admission refused a task";
      return false;
    }
    return true;
  }

  bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error) override {
    return client_.RunCycle(now, granted, error);
  }

  double BatchSeconds() const override { return -1.0; }
  double Pending() const override { return -1.0; }

  bool Finish(bool /*traced*/, LayerReport* report, std::string* error) override {
    report->client = client_.counters();
    bool ok = client_.SendShutdown(error);
    client_.Close();
    if (ok && !ReadSummary(report_fd_, report)) {
      *error = "the daemon's summary is missing or truncated";
      ok = false;
    }
    ChildStatus status = WaitChild(daemon_);
    daemon_ = -1;
    if (ok && (status.state != ChildState::kExited || status.exit_code != 0)) {
      *error = "daemon exited uncleanly (status " + std::to_string(status.exit_code) + ")";
      ok = false;
    }
    if (ok && (report->blocks_over_budget != 0 || (report->codec && !report->codec->ok))) {
      *error = "block budget or snapshot codec check failed in the daemon";
      ok = false;
    }
    return ok;
  }

 private:
  std::string socket_path_;
  pid_t daemon_ = -1;
  int report_fd_ = -1;
  ServiceClient client_;
};

}  // namespace

std::unique_ptr<Target> MakeInProcessTarget(TargetKind kind, const SimConfig& sim) {
  if (kind == TargetKind::kService) {
    return std::make_unique<InProcessTarget<GrantService>>(sim);
  }
  return std::make_unique<InProcessTarget<OnlineScheduler>>(sim);
}

std::unique_ptr<Target> SpawnRemoteTarget(const RemoteOptions& options, const SimConfig& sim,
                                          std::string* error) {
  auto target = std::make_unique<RemoteTarget>(options.socket_path);
  if (!target->Spawn(options, sim, error)) {
    return nullptr;
  }
  return target;
}

int DaemonMain(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr, "daemon: expected 5 arguments after --daemon\n");
    return 2;
  }
  std::string socket_path = argv[2];
  bool traced = std::string(argv[3]) == "1";
  int config_fd = std::atoi(argv[4]);
  int report_fd = std::atoi(argv[5]);
  std::string trace_path = std::string(argv[6]) == "-" ? "" : argv[6];
  // Dies with the bench, so a bench that crashes mid-pass leaves no daemon behind (the
  // workers notice their orphaned rings and exit on their own).
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) {
    return 3;
  }
  SimConfig sim;
  bool configured = ReadDaemonConfig(config_fd, &sim);
  close(config_fd);
  if (!configured) {
    std::fprintf(stderr, "daemon: no valid configuration on fd %d\n", config_fd);
    return 2;
  }

  BlockManager blocks(sim.grid, sim.eps_g, sim.delta_g);
  GrantService service(GreedyMetric::kDpack, &blocks, ServiceConfigFor(sim));
  BlockFeed feed(sim);
  Tracer tracer(Clock::now());

  LayerReport log;
  double last_now = 0.0;
  size_t seen_cycles = 0;
  double seen_batch_s = 0.0;
  bool serving = false;
  Clock::time_point serve_start;
  double serve_cpu0 = 0.0;
  // Each RunCycle request runs exactly one ScheduleBatch, recorded in the service metrics;
  // the next request's hook (or the end of serving) turns the new total into a sample.
  auto note_cycle = [&] {
    const RunningStat& runtime = service.metrics().cycle_runtime_seconds();
    if (runtime.count() != seen_cycles) {
      log.batch_us.push_back((runtime.sum() - seen_batch_s) * 1e6);
      seen_cycles = runtime.count();
      seen_batch_s = runtime.sum();
    }
  };
  auto advance = [&](double now) {
    if (!serving) {  // The first request: the daemon's measured window starts here.
      serving = true;
      serve_start = Clock::now();
      serve_cpu0 = CpuSeconds(false);
    }
    last_now = now;
    if (!traced) {
      feed.AdvanceTo(now, blocks);
      return;
    }
    note_cycle();
    log.pending.push_back(static_cast<double>(service.pending_count()));
    Clock::time_point start = Clock::now();
    size_t added = feed.AdvanceTo(now, blocks);
    Clock::time_point end = Clock::now();
    if (!trace_path.empty()) {
      tracer.Add("advance", now, -1, start, end);
    }
    if (added > 0) {
      log.block_add_us.push_back(MicrosBetween(start, end));
    }
  };

  NetAddress address;
  address.is_unix = true;
  address.path = socket_path;
  NetFrontConfig front_config;
  front_config.serve_idle_budget = kDaemonIdlePolls;
  NetServiceFront front(&service, &blocks, sim.grid, std::make_unique<NetListener>(address),
                        front_config, advance);
  bool served = front.ServeUntilShutdown();

  log.scheduler_wall_s = serving ? SecondsSince(serve_start) : 0.0;
  log.scheduler_cpu_s = CpuSeconds(false) - serve_cpu0;
  if (traced) {
    note_cycle();
  }
  service.scheduler().Shutdown();
  log.workers_cpu_s = CpuSeconds(true);
  log.service = service.counters();
  log.front = front.counters();
  ReportClusterState(blocks, service.metrics(), service.pending_count(), sim, last_now, traced,
                     &log);
  log.peak_rss_mb = PeakRssMb();
  bool sent = WriteSummary(report_fd, log);
  close(report_fd);
  if (!trace_path.empty()) {
    tracer.WriteChrome(trace_path, "daemon",
                       {{"serve_wall_s", log.scheduler_wall_s},
                        {"serve_cpu_s", log.scheduler_cpu_s},
                        {"workers_cpu_s", log.workers_cpu_s},
                        {"peak_rss_mb", log.peak_rss_mb}});
  }
  return served && sent ? 0 : 3;
}

}  // namespace dpack::e2e
