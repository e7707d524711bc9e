// Fig. 5 reproduction (Q2): scheduler runtime (a) and efficiency (b) under increasing load,
// single-threaded, offline. Microbenchmark with sigma_alpha = 4, mu_blocks = 1,
// sigma_blocks = 10, eps_min = 0.01, 7 available blocks.
// Expected shape: Optimal hits a tractability wall after a few hundred tasks (the paper
// stops its line at 200 because Gurobi "never finishes"); DPack runs slightly slower than
// DPF (it solves single-block knapsacks) but both stay practical; DPack matches Optimal
// while it lasts and plateaus as the task pool saturates.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

struct RunOutcome {
  size_t allocated = 0;
  double seconds = 0.0;
  bool proven_optimal = true;
};

RunOutcome RunOne(SchedulerKind kind, const std::vector<Task>& tasks, double time_limit) {
  SimConfig sim;
  sim.num_blocks = 7;
  PkOptions options;
  options.time_limit_seconds = time_limit;
  std::unique_ptr<Scheduler> scheduler = CreateScheduler(kind, 0.05, options);
  auto start = std::chrono::steady_clock::now();
  SimResult result = RunOfflineSchedule(*scheduler, tasks, sim);
  RunOutcome outcome;
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  outcome.allocated = result.metrics.allocated();
  if (auto* optimal = dynamic_cast<OptimalScheduler*>(scheduler.get())) {
    outcome.proven_optimal = optimal->last_solve_optimal();
  }
  return outcome;
}

void Run(Scale scale) {
  double f = ScaleFactor(scale);
  const double optimal_time_limit = 20.0;
  // Optimal is dropped from the sweep once it fails to prove optimality in the time limit,
  // mirroring the paper's "its execution never finishes" cutoff at 200 tasks.
  bool optimal_alive = true;

  CsvTable table({"submitted", "Optimal_alloc", "DPack_alloc", "DPF_alloc", "Optimal_s",
                  "DPack_s", "DPF_s"});
  for (size_t n : {50, 100, 200, 500, 1000, 2000, 5000}) {
    size_t num_tasks = static_cast<size_t>(static_cast<double>(n) * f);
    if (num_tasks == 0) {
      continue;
    }
    MicrobenchmarkConfig config;
    config.num_tasks = num_tasks;
    config.num_blocks = 7;
    config.mu_blocks = 1.0;
    config.sigma_blocks = 10.0;
    config.sigma_alpha = 4.0;
    config.eps_min = 0.01;
    config.seed = 7;
    std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);

    RunOutcome dpack = RunOne(SchedulerKind::kDpack, tasks, optimal_time_limit);
    RunOutcome dpf = RunOne(SchedulerKind::kDpf, tasks, optimal_time_limit);
    RunOutcome optimal;
    std::string optimal_alloc = "-";
    std::string optimal_seconds = "-";
    if (optimal_alive) {
      optimal = RunOne(SchedulerKind::kOptimal, tasks, optimal_time_limit);
      if (optimal.proven_optimal) {
        optimal_alloc = std::to_string(optimal.allocated);
        optimal_seconds = FormatDouble(optimal.seconds);
      } else {
        optimal_alloc = "timeout";
        optimal_seconds = ">" + FormatDouble(optimal_time_limit);
        optimal_alive = false;  // The intractability wall: stop the line here.
      }
    }
    table.NewRow()
        .Add(num_tasks)
        .Add(optimal_alloc)
        .Add(dpack.allocated)
        .Add(dpf.allocated)
        .Add(optimal_seconds)
        .Add(dpack.seconds)
        .Add(dpf.seconds);
  }
  table.Print("Fig. 5: allocated tasks and scheduler runtime vs offered load (7 blocks)");
}

// --- Incremental engine vs recompute baseline (§6.4 Q4) -----------------------------------
//
// Steady-state online trace (bench_util's SteadyStateTasks, shared with micro_scheduler's
// BM_*Steady* so both harnesses measure the same scenario): a persistent queue of oversized
// (never-granted) pending tasks is rescheduled every cycle while exactly 1 of 20 blocks
// (5%) receives a commit between cycles. The recompute baseline rescores the whole queue
// every cycle; the incremental engine rescores only tasks touching the dirtied block. Same
// grants by construction (see tests/core/incremental_equivalence_test.cc); this measures
// the cycle-time win.

double SteadyStateMsPerCycle(GreedyMetric metric, bool incremental,
                             const std::vector<Task>& tasks, size_t num_blocks,
                             size_t cycles, size_t num_shards = 1,
                             ScheduleContextStats* stats_out = nullptr) {
  BlockManager blocks(AlphaGrid::Default(), kEpsG, kDeltaG);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  RdpCurve tiny = SteadyStateTinyDemand();
  GreedyScheduler scheduler(
      metric, GreedySchedulerOptions{.incremental = incremental, .num_shards = num_shards});
  scheduler.ScheduleBatch(tasks, blocks);  // Warm-up: measure the steady state.
  ScheduleContextStats at_entry;
  if (scheduler.engine() != nullptr) {
    at_entry = scheduler.engine()->stats();
  }
  double seconds = 0.0;
  for (size_t c = 0; c < cycles; ++c) {
    blocks.block(static_cast<BlockId>(c % num_blocks)).Commit(tiny);  // 1/20 dirty.
    auto start = std::chrono::steady_clock::now();
    scheduler.ScheduleBatch(tasks, blocks);
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  if (stats_out != nullptr && scheduler.engine() != nullptr) {
    // The timed loop's counter deltas: deterministic for the fixed workload and cycle
    // count, unlike the wall time — the CI regression gate compares these.
    *stats_out = scheduler.engine()->stats().Delta(at_entry);
  }
  return 1e3 * seconds / static_cast<double>(cycles);
}

void RunIncrementalComparison(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  CsvTable table({"metric", "recompute_ms", "incremental_ms", "speedup"});
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    double recompute_ms = SteadyStateMsPerCycle(metric, false, tasks, kBlocks, kCycles);
    double incremental_ms = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles);
    GreedyScheduler named(metric);
    table.NewRow()
        .Add(named.name())
        .Add(FormatDouble(recompute_ms))
        .Add(FormatDouble(incremental_ms))
        .Add(FormatDouble(recompute_ms / incremental_ms));
  }
  table.Print("Fig. 5 addendum: per-cycle cost, incremental engine vs recompute (" +
              std::to_string(num_tasks) + " pending tasks, 5% blocks dirty per cycle)");
}

// --- Shard-count sweep (the incremental engine on the same steady-state regime) -----------
//
// ShardedScheduleContext partitions blocks and tasks across N shards and rescoring across a
// worker pool; grants are byte-identical at every shard count (pinned by the differential
// suite). This sweep reports per-cycle cost per shard count and the speedup
// over 1 shard. The parallel phases scale with the cores actually available — a single-core
// host measures only the pool's coordination overhead. Every block is dirtied once per 20
// cycles and the queue never drains, so each cycle rescores little: this is the regime
// where the pool's fork-join overhead outweighs the parallel work (4 shards ran at
// 0.2-0.6x of 1 shard on a 4-core Xeon). The backlog replay below was the one regime where
// sharding paid, until the exact best-alpha selection made its solves cheap.

void RunShardSweep(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  CsvTable table({"metric", "shards_1_ms", "shards_2_ms", "shards_4_ms", "speedup_4x"});
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    double ms1 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 1);
    double ms2 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 2);
    double ms4 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 4);
    GreedyScheduler named(metric);
    table.NewRow()
        .Add(named.name())
        .Add(FormatDouble(ms1))
        .Add(FormatDouble(ms2))
        .Add(FormatDouble(ms4))
        .Add(FormatDouble(ms1 / ms4));
  }
  table.Print("Fig. 5 addendum: per-cycle cost vs shard count, sharded engine (" +
              std::to_string(num_tasks) + " pending tasks, 5% blocks dirty per cycle)");
}

// --- Backlog replay: the deep-queue regime ------------------------------------------------
//
// The end-to-end benchmark's engine_backlog stream (bench/e2e/streams.cc): steady_poisson
// scaled to one block per unit, 80 tasks per unit and fixed 30-unit timeouts, so about
// 2.3k tasks stay pending and scoring dominates every cycle. It is replayed through the
// full online driver (RunOnlineSimulation) at each shard count. Grants must be
// byte-identical across shard counts; the harness fails otherwise. Wall time only, so the
// CI gate does not read it. On a 4-core Xeon (8 runs each), while BestAlphaForBlock sorted
// every requester's demand per order, 4 shards cut 2.2-3.0 ms per cycle at 1 shard to
// 1.5-2.1 ms (1.38-1.80x). With the exact selection 1 shard takes 0.91-1.34 ms and 4
// shards 1.01-1.79 ms (0.73-1.03x, median 0.84x): sharding no longer pays here either.

// Block count of the full-size backlog stream (bench/e2e/streams.cc's kBacklogBlocks).
constexpr size_t kBacklogBlocks = 500;
constexpr uint64_t kBacklogSeed = 11;

ScenarioSpec BacklogSpec(Scale scale) {
  ScenarioSpec spec = ScenarioByName("steady_poisson", kBacklogSeed);
  spec.name = "fig5_backlog";
  spec.num_blocks = static_cast<size_t>(static_cast<double>(kBacklogBlocks) * ScaleFactor(scale));
  spec.task_span = static_cast<double>(spec.num_blocks);
  spec.task_rate = 80.0;
  spec.mu_blocks = 6.0;
  spec.sigma_blocks = 3.0;
  spec.max_blocks_per_task = 12;
  spec.eps_min = 0.08;
  spec.unlock_steps = 20;
  spec.timeouts = TimeoutRegime::kFixedTimeout;
  spec.timeout = 30.0;
  return spec;
}

bool RunBacklogShardSweep(Scale scale) {
  ScenarioSpec spec = BacklogSpec(scale);
  ScenarioWorkload workload = GenerateScenario(SharedPool(), spec);
  workload.sim.record_grant_trace = true;
  CsvTable table({"shards", "cycles", "ms_per_cycle", "speedup", "granted", "trace"});
  std::vector<std::vector<TaskId>> reference;
  double ms1 = 0.0;
  bool identical = true;
  for (size_t shards : {1, 2, 4}) {
    auto scheduler = std::make_unique<GreedyScheduler>(
        GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .num_shards = shards});
    auto start = std::chrono::steady_clock::now();
    SimResult result = RunOnlineSimulation(std::move(scheduler), workload.tasks, workload.sim);
    std::chrono::duration<double, std::milli> elapsed = std::chrono::steady_clock::now() - start;
    double ms = elapsed.count() / static_cast<double>(std::max<size_t>(1, result.cycles_run));
    if (shards == 1) {
      reference = result.grant_trace;
      ms1 = ms;
    }
    bool same = result.grant_trace == reference;
    identical = identical && same;
    table.NewRow()
        .Add(shards)
        .Add(result.cycles_run)
        .Add(FormatDouble(ms))
        .Add(FormatDouble(ms1 / ms))
        .Add(result.metrics.allocated())
        .Add(same ? "identical" : "DIVERGED");
  }
  table.Print("Fig. 5 addendum: backlog replay through the online driver, DPack, by shard "
              "count (" + std::to_string(workload.tasks.size()) + " tasks, " +
              std::to_string(spec.num_blocks) + " blocks, " +
              std::to_string(std::thread::hardware_concurrency()) + " cores)");
  if (!identical) {
    std::fprintf(stderr, "backlog replay: grant traces differ across shard counts\n");
  }
  return identical;
}

// --- Deterministic counter dump for the CI regression gate (--json <path>) ----------------
//
// Emits the steady-state engine counters in the same {"benchmarks": [...]} shape as
// google-benchmark's JSON so scripts/check_bench_regression.py can gate both artifacts with
// one parser. Only counters are compared by the gate; the *_ms fields ride along for
// humans. Counters are exact functions of (workload seed, task count, cycle count, engine),
// so they are stable across machines — unlike wall time on shared runners.

bool DumpCountersJson(Scale scale, const std::string& path) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return true;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  std::vector<BenchJsonEntry> entries;
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    GreedyScheduler named(metric);
    for (size_t shards : {1, 4}) {
      ScheduleContextStats stats;
      double ms = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, shards, &stats);
      BenchJsonEntry entry{
          "fig5_steady/" + named.name() + "/sync/shards:" + std::to_string(shards),
          {{"wall_ms", ms},
           {"rescored_per_cycle", static_cast<double>(stats.tasks_rescored) / kCycles},
           {"reused_per_cycle", static_cast<double>(stats.tasks_reused) / kCycles},
           {"blocks_refreshed_per_cycle",
            static_cast<double>(stats.blocks_refreshed) / kCycles},
           {"best_alpha_per_cycle",
            static_cast<double>(stats.best_alpha_recomputes) / kCycles},
           {"full_recomputes", static_cast<double>(stats.full_recomputes)}}};
      entries.push_back(std::move(entry));
    }
  }
  return WriteBenchCountersJson(path, entries);
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
  Banner("Fig. 5: scalability under increasing load", "paper §6.2, Q2");
  Scale scale = ParseScale(argc, argv);
  std::string json_path = ParseJsonPath(argc, argv);
  if (!json_path.empty()) {
    // Counter-dump mode (the CI regression gate): only the JSON consumer exists, so skip
    // the human-readable sweeps — they would re-measure the same legs for nobody. A
    // failed dump must fail this step, not the gate step two steps later.
    return DumpCountersJson(scale, json_path) ? 0 : 1;
  }
  Run(scale);
  RunIncrementalComparison(scale);
  RunShardSweep(scale);
  return RunBacklogShardSweep(scale) ? 0 : 1;
}
