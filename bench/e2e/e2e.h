// The repo benchmark (bench/e2e): replays seeded scenario streams through the program's
// public entry points — OnlineScheduler, GrantService and ServiceClient — and times every
// call from outside. This header holds what main.cc shares with the other files: the
// streams and their grant digest (streams.cc), the replay targets (targets.cc) and the
// in-memory span recorder (trace.cc). See bench/e2e/README.md for the workloads and
// metrics.

#ifndef BENCH_E2E_E2E_H_
#define BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/schedule_context.h"
#include "src/core/task.h"
#include "src/service/net_transport.h"
#include "src/service/transport.h"
#include "src/sim/sim_driver.h"
#include "src/workload/scenario.h"

namespace dpack::e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// CPU seconds (user + system) of this process, or of its reaped children.
double CpuSeconds(bool children);
// Peak resident set of this process, MiB.
double PeakRssMb();

// --- Streams (streams.cc) -------------------------------------------------------------------

enum class StreamKind { kBacklog, kChurn };

// The bench-owned spec of a stream: a registry scenario scaled up (or, with `smoke`, to
// about 1/20 of the full size).
ScenarioSpec StreamSpec(StreamKind kind, uint64_t seed, bool smoke);

// One generated stream in replay form. Tasks are grouped per distinct arrival instant, in
// workload order within an instant — one Submit per group, the event order the sim driver
// and RunRemoteWorkload share.
struct Stream {
  SimConfig sim;
  std::vector<double> block_times;
  std::vector<double> cycle_times;
  std::vector<double> batch_times;
  std::vector<std::vector<Task>> batches;
  size_t task_count = 0;
  // Virtual time by which every task has been granted or evicted (all stream timeouts are
  // finite): cycles up to here drain the queue before a state snapshot.
  double drained_by = 0.0;
};

// The 620-curve pool every stream draws its demands from, built (as fig12 builds it) on
// first use. It is a fixed table of the workload generator, not state the scheduler's
// users pay for, so runs build it before timing anything.
const CurvePool& StreamCurvePool();

Stream GenerateStream(const ScenarioSpec& spec);

// Whole-buffer pipe I/O, retried on EINTR; false on EOF or error.
bool WriteAll(int fd, const void* data, size_t size);
bool ReadAll(int fd, void* data, size_t size);

// FNV-1a over a grant trace, cycle-delimited: each cycle folds its grant count, then its
// task ids.
class GrantDigest {
 public:
  void AddCycle(const std::vector<TaskId>& granted);
  uint64_t value() const { return hash_; }

 private:
  void Fold(uint64_t word);
  uint64_t hash_ = 14695981039346656037ULL;
};

// The digest pinned for (stream, seed, smoke), if any.
std::optional<uint64_t> PinnedDigest(StreamKind kind, uint64_t seed, bool smoke);

// The digest of the recompute reference (GreedyScheduler with incremental = false, driven
// by RunOnlineSimulation) on the spec's stream. Runs in a forked child so the reference
// never adds to this process's peak memory; nullopt if the child fails.
std::optional<uint64_t> ReferenceDigest(const ScenarioSpec& spec);

// Blocks whose consumption exceeds capacity at every usable order, beyond the admission
// slack — blocks outside their (eps_g, delta_g) guarantee. Zero on a correct run.
size_t BlocksOverBudget(const BlockManager& blocks);

// Snapshot codec timings over the cluster state at virtual time `now`, with the queue
// drained (CaptureSnapshot plus binary encode, then decode, repeated). `ok` is false if a
// decode fails or does not re-encode to the same bytes.
struct CodecSample {
  bool ok = true;
  uint64_t bytes = 0;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
};
CodecSample MeasureSnapshotCodec(const BlockManager& blocks, const AllocationMetrics& metrics,
                                 const SimConfig& sim, double now);

// --- Replay targets (targets.cc) ------------------------------------------------------------

enum class TargetKind { kEngine, kService, kRemote };

// What a target reports when a pass ends: counters from the layers below the call it
// exposes. Layers the target does not run read zero.
struct LayerReport {
  ScheduleContextStats engine;
  ServiceCounters service;
  NetCounters client;
  NetCounters front;
  uint64_t cycles = 0;  // Cycles the scheduler ran, drain cycles included.
  uint64_t allocated = 0;
  uint64_t evicted = 0;
  uint64_t retired_blocks = 0;
  uint64_t blocks_over_budget = 0;
  // CPU seconds and wall seconds of the process running the OnlineScheduler over the pass
  // (remote: the daemon's serve loop), and the CPU of its scoring workers.
  double scheduler_cpu_s = 0.0;
  double scheduler_wall_s = 0.0;
  double workers_cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // Remote only: the daemon's own peak.
  // Remote, traced: what the daemon saw, in request order.
  std::vector<double> batch_us;      // ScheduleBatch time per cycle.
  std::vector<double> block_add_us;  // Advance-hook calls that added blocks.
  std::vector<double> pending;       // Queue depth before each request.
  std::optional<CodecSample> codec;  // Traced passes: after the queue drained.
};

// One serving stack under test. The replay loop calls Advance before every request (the
// in-process targets add arrived blocks there; the remote daemon does it in its own
// advance hook), then Submit or RunCycle.
class Target {
 public:
  virtual ~Target() = default;
  // Connects the remote client; in-process targets have nothing to connect.
  virtual bool Connect(std::string* /*error*/) { return true; }
  // Adds every block arriving at or before `now`; returns the number added.
  virtual size_t Advance(double now) = 0;
  // Submits one arrival instant's tasks (moved from `batch`). False on a failed or
  // refused request.
  virtual bool Submit(double now, std::vector<Task>& batch, std::string* error) = 0;
  virtual bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error) = 0;
  // Seconds spent in Scheduler::ScheduleBatch so far; negative where the caller cannot
  // see it (remote — the daemon reports it in LayerReport::batch_us when traced).
  virtual double BatchSeconds() const = 0;
  // Pending queue depth; negative where the caller cannot see it (remote).
  virtual double Pending() const = 0;
  // Ends the pass: shuts fleets and daemons down and fills `report`. False if a process
  // failed or a block exceeded its budget.
  virtual bool Finish(bool traced, LayerReport* report, std::string* error) = 0;
};

// The engine (OnlineScheduler) or service (GrantService) target over `sim`'s block stream.
std::unique_ptr<Target> MakeInProcessTarget(TargetKind kind, const SimConfig& sim);

struct RemoteOptions {
  std::string exe;          // This binary, re-executed as the daemon.
  std::string socket_path;  // Unix socket, relative to the working directory.
  bool traced = false;
  std::string trace_path;  // Traced: where the daemon writes its spans ("" = nowhere).
};

// Starts the daemon and sends it `sim`'s block stream and scheduling parameters over a
// pipe; Connect() then connects the client.
std::unique_ptr<Target> SpawnRemoteTarget(const RemoteOptions& options, const SimConfig& sim,
                                          std::string* error);

// The daemon process: `argv` as SpawnRemoteTarget passes it (argv[1] == "--daemon").
int DaemonMain(int argc, char** argv);

// --- Host-speed reference (reference.cc) ----------------------------------------------------

// The benchmark's host is a share of a machine whose other tenants change its speed. On the
// baseline machine each core flipped between a fast and a slow state every few hundred
// milliseconds, and the share of time in the slow state drifted over minutes: the engine's
// cycle took 21 us in one state and 34 us in the other, so whole runs of one commit
// differed by half. A reference slice is a fixed computation that belongs to the benchmark,
// not to the program under test. A run interleaves slices with its requests and scales each
// timing by the slices around it, to the power of how far that timing follows the host's
// speed, which reports it at the baseline machine's fast-state speed. Over ten runs of
// engine_churn during which the host changed state, the measured cycle_p50_us ranged from
// 20.8 to 31.3 us, an interquartile spread of 38% of its median; the scaled one spread 3%.
class HostReference {
 public:
  // Runs one slice; returns the seconds it took, which the caller leaves out of its timings.
  double Run();
  // Runs a slice if none ran in the last 50 ms; returns its seconds (0 if none ran).
  double MaybeRun();
  // Slices so far. A timing taken while count() == k lies between slices k-1 and k.
  size_t count() const { return slices_us_.size(); }
  // The factor that brings a timing taken while count() == k to the reference speed, for
  // a timing whose elasticity to the slice time is `sensitivity`: the nominal slice time
  // over the median of slices k-2 to k+1 (those that exist), to that power.
  double Scale(size_t k, double sensitivity) const;
  double median_us() const;

 private:
  std::vector<double> slices_us_;
  Clock::time_point last_;
  uint64_t state_ = 1;
};

// --- Spans (trace.cc) -----------------------------------------------------------------------

// Spans kept in memory and written as a Chrome trace when the run ends. A span's parent is
// the index of an earlier span, or -1 for a root; its key identifies the request (a task
// id for a submit, the cycle index for a cycle, the virtual instant for a block arrival).
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int32_t Add(const char* name, double key, int32_t parent, Clock::time_point start,
              Clock::time_point end);
  void SetEnd(int32_t span, Clock::time_point end);
  // Attaches the ScheduleBatch part of a cycle span (in-process: measured; remote: the
  // daemon's figure for that cycle).
  void SetBatchMicros(int32_t span, double micros);

  size_t size() const { return spans_.size(); }
  // Self time per layer, seconds: each span's duration minus the time its children cover,
  // with a cycle's ScheduleBatch part split out as "core.scheduler".
  std::vector<std::pair<std::string, double>> SelfSeconds() const;
  // Writes the spans, plus `other` as the trace's metadata.
  bool WriteChrome(const std::string& path, const std::string& process_name,
                   const std::vector<std::pair<std::string, double>>& other = {}) const;

 private:
  struct Span {
    const char* name;
    double key;
    int32_t parent;
    double start_us;
    double end_us;
    double batch_us;  // Negative when not a cycle or unknown.
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace dpack::e2e

#endif  // BENCH_E2E_E2E_H_
