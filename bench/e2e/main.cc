// dpack_e2e: the repo benchmark's program. One process runs one workload:
//
//   dpack_e2e --workload W [--seed N] [--seconds S] [--trace 0|1|DIR] [--smoke]
//   dpack_e2e --print-digests
//
// A run replays passes of the workload's seeded stream for about S seconds — every pass
// sets its stack up from scratch (generate, construct, fork and connect), replays the
// stream closed-loop (one caller, each request sent after the previous reply) and checks
// its grant digest. Set-up-only trials are spread between the passes until kMinSetups
// set-ups were timed. It prints `<workload> <metric> <value> <unit>` lines and, last, one
// JSON object with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1
// or DIR). A traced run alternates untraced and traced passes, so the per-layer figures and
// the tracing overhead come from the same run; it writes DIR/<workload>.trace.json (DIR is
// kTraceDir for --trace 1). Timings are reported at the reference speed (HostReference in
// e2e.h), and also as measured, as wall.<metric>. Exits nonzero if any request failed or
// any check did not hold.
// bench/e2e/run.sh builds it and runs it from the repository root.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "src/common/stats.h"

namespace dpack::e2e {
namespace {

// Set-ups timed per run, at least; setup_s is their median. Forks, execs and connects
// vary a lot from one to the next, so the median needs this many, spread over the run.
constexpr size_t kMinSetups = 61;
// Relative to the working directory (run.sh runs the program from the repository root):
// the daemons' sockets, and the traces of --trace 1.
constexpr const char* kSocketDir = "build-e2e/run";
constexpr const char* kTraceDir = "build-e2e/trace";

// How far a workload's timings follow the host's speed: the exponent s in
//   reported = measured * (nominal slice / slice)^s
// (see HostReference). Each s is the elasticity of that timing to the slice time over the
// runs calibrate.sh records on the baseline machine, rounded. CPU work that runs in the
// cache, as the churn engine's does, follows the slices almost one for one; the backlog
// engine waits on memory for part of its time, which the host's state moves less. The
// fleet and the remote daemon spend part of a request in fixed sleep polls, which a slower
// host does not stretch: a remote Submit is almost only the client's 200 us poll, so s = 0.
struct HostSensitivity {
  double cycle;
  double submit;
  double setup;  // Also the replay loop's time outside requests.
};

struct WorkloadDef {
  const char* name;
  StreamKind stream;
  TargetKind target;
  HostSensitivity sensitivity;
};

constexpr WorkloadDef kWorkloads[] = {
    {"engine_backlog", StreamKind::kBacklog, TargetKind::kEngine, {0.5, 0.6, 0.9}},
    {"engine_churn", StreamKind::kChurn, TargetKind::kEngine, {0.95, 0.8, 0.85}},
    {"fleet_churn", StreamKind::kChurn, TargetKind::kService, {0.6, 1.0, 0.9}},
    {"remote_churn", StreamKind::kChurn, TargetKind::kRemote, {0.5, 0.0, 0.7}},
};

struct Options {
  std::string workload;
  uint64_t seed = 11;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  bool print_digests = false;
  std::string trace_dir = kTraceDir;
  std::string exe;
};

bool ParseOptions(int argc, char** argv, Options* options, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (flag == "--print-digests") {
      options->print_digests = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value.empty()) {
        *error = "--trace takes 0, 1 or a directory";
        return false;
      }
      options->trace = value != "0";
      if (value != "0" && value != "1") {
        options->trace_dir = value;
      }
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (options->seconds <= 0.0) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// One pass over the stream, or a set-up-only trial that stops after the first cycle that
// follows a submit (the cycle that starts a fleet, and the engine's first cold cycle).
struct Pass {
  bool traced = false;
  bool setup_only = false;
  bool ok = true;
  std::string error;
  double generate_s = 0.0;
  double construct_s = 0.0;  // Target construction, daemon spawn and connect.
  double first_cycle_s = 0.0;
  double replay_s = 0.0;  // The replay loop, without the first non-empty cycle.
  double loop_s = 0.0;    // The whole replay loop.
  double caller_cpu_s = 0.0;
  // Per replay cycle except the first non-empty one; batch_us[i] is cycle_us[i]'s
  // ScheduleBatch part (known in process always, remote only when traced).
  std::vector<double> cycle_us;
  std::vector<double> batch_us;
  std::vector<double> submit_us;  // Remote: per Submit; in process: per gap between cycles.
  // HostReference::count() when each set-up, cycle_us and submit_us sample was taken.
  size_t setup_slice = 0;
  std::vector<size_t> cycle_slice;
  std::vector<size_t> submit_slice;
  std::vector<double> block_add_us;  // In process, traced.
  std::vector<double> pending;       // In process, traced.
  double request_us = 0.0;           // All replay requests, first cycle included.
  double batch_total_us = 0.0;
  uint64_t tasks = 0;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t granted = 0;
  uint64_t digest = 0;
  LayerReport layers;

  double setup_s() const { return generate_s + construct_s + first_cycle_s; }
};

struct PassContext {
  const WorkloadDef* def;
  const Options* options;
  Tracer* tracer;
  HostReference* reference;
  int index;
  bool traced;
  bool setup_only;
  // Spans, in the bench and in the daemon's own trace file: the first traced pass only,
  // which keeps a trace to one pass (under 1M spans). Every traced pass collects the
  // per-layer samples.
  bool record_spans;
};

void Fail(Pass& pass, const std::string& error) {
  pass.ok = false;
  pass.error = error;
  ++pass.failed;
}

Pass RunPass(const PassContext& ctx) {
  const WorkloadDef& def = *ctx.def;
  const Options& options = *ctx.options;
  Pass pass;
  pass.traced = ctx.traced;
  pass.setup_only = ctx.setup_only;
  ScenarioSpec spec = StreamSpec(def.stream, options.seed, options.smoke);
  double children_cpu0 = CpuSeconds(true);
  std::string error;
  HostReference& reference = *ctx.reference;
  pass.setup_slice = reference.count();

  // --- Set-up.
  Clock::time_point setup_start = Clock::now();
  Stream stream = GenerateStream(spec);
  pass.generate_s = SecondsSince(setup_start);
  std::unique_ptr<Target> target;
  if (def.target == TargetKind::kRemote) {
    RemoteOptions remote;
    remote.exe = options.exe;
    remote.socket_path = std::string(kSocketDir) + "/e2e-" + std::to_string(getpid()) + "-" +
                         std::to_string(ctx.index) + ".sock";
    remote.traced = ctx.traced;
    if (ctx.record_spans) {
      remote.trace_path = options.trace_dir + "/" + def.name + ".daemon.json";
    }
    target = SpawnRemoteTarget(remote, stream.sim, &error);
  } else {
    target = MakeInProcessTarget(def.target, stream.sim);
  }
  if (target == nullptr || !target->Connect(&error)) {
    Fail(pass, error);
    return pass;
  }
  pass.construct_s = SecondsSince(setup_start) - pass.generate_s;

  // --- Replay: at each cycle instant, every earlier arrival instant's blocks then tasks,
  // then that instant's blocks and the cycle.
  Tracer* tracer = ctx.record_spans ? ctx.tracer : nullptr;
  double cpu0 = CpuSeconds(false);
  Clock::time_point loop_start = Clock::now();
  int32_t pass_span = tracer ? tracer->Add("pass", ctx.index, -1, loop_start, loop_start) : -1;
  auto advance = [&](double now) {
    if (!ctx.traced) {
      target->Advance(now);
      return;
    }
    if (double depth = target->Pending(); depth >= 0.0) {
      pass.pending.push_back(depth);
    }
    Clock::time_point start = Clock::now();
    if (target->Advance(now) > 0) {
      Clock::time_point end = Clock::now();
      pass.block_add_us.push_back(MicrosBetween(start, end));
      if (tracer != nullptr) {
        tracer->Add("block.add", now, pass_span, start, end);
      }
    }
  };
  // In process a Submit takes about 0.1 us, close to the cost of two clock reads, so one
  // submit sample there is the summed Submit time of the arrival instants between two
  // cycles. A remote Submit is a round trip of its own: one sample each.
  const bool sample_each_submit = def.target == TargetKind::kRemote;
  double between_cycles_us = 0.0;
  size_t between_cycles = 0;
  double reference_s = 0.0;  // Reference slices inside the loop, left out of its wall time.
  auto end_submit_sample = [&] {
    if (between_cycles > 0) {
      pass.submit_us.push_back(between_cycles_us);
      pass.submit_slice.push_back(reference.count());
    }
    between_cycles_us = 0.0;
    between_cycles = 0;
  };
  auto submit = [&](size_t b) {
    std::vector<Task>& batch = stream.batches[b];
    double key = static_cast<double>(batch.front().id);
    size_t count = batch.size();
    Clock::time_point start = Clock::now();
    bool ok = target->Submit(stream.batch_times[b], batch, &error);
    Clock::time_point end = Clock::now();
    ++pass.requests;
    if (!ok) {
      Fail(pass, error);
      return false;
    }
    double micros = MicrosBetween(start, end);
    if (sample_each_submit) {
      pass.submit_us.push_back(micros);
      pass.submit_slice.push_back(reference.count());
    } else {
      between_cycles_us += micros;
      ++between_cycles;
    }
    pass.request_us += micros;
    pass.tasks += count;
    if (tracer != nullptr) {
      tracer->Add("submit", key, pass_span, start, end);
    }
    return true;
  };

  GrantDigest digest;
  std::vector<double> all_cycle_us;
  std::vector<size_t> all_cycle_slice;
  std::vector<double> all_batch_us;
  std::vector<int32_t> cycle_spans;
  std::vector<TaskId> granted;
  size_t first_cycle = SIZE_MAX;
  size_t next_batch = 0;
  for (size_t c = 0; c < stream.cycle_times.size() && pass.ok; ++c) {
    reference_s += reference.MaybeRun();
    double now = stream.cycle_times[c];
    while (next_batch < stream.batch_times.size() && stream.batch_times[next_batch] <= now) {
      advance(stream.batch_times[next_batch]);
      if (!submit(next_batch++)) {
        break;
      }
    }
    if (!pass.ok) {
      break;
    }
    end_submit_sample();
    advance(now);
    double batch0 = target->BatchSeconds();
    Clock::time_point start = Clock::now();
    bool ok = target->RunCycle(now, &granted, &error);
    Clock::time_point end = Clock::now();
    ++pass.requests;
    if (!ok) {
      Fail(pass, error);
      break;
    }
    double micros = MicrosBetween(start, end);
    double batch_us = batch0 >= 0.0 ? (target->BatchSeconds() - batch0) * 1e6 : -1.0;
    all_cycle_us.push_back(micros);
    all_cycle_slice.push_back(reference.count());
    all_batch_us.push_back(batch_us);
    pass.request_us += micros;
    digest.AddCycle(granted);
    pass.granted += granted.size();
    if (tracer != nullptr) {
      cycle_spans.push_back(tracer->Add("cycle", static_cast<double>(c), pass_span, start, end));
      if (batch_us >= 0.0) {
        tracer->SetBatchMicros(cycle_spans.back(), batch_us);
      }
    }
    if (first_cycle == SIZE_MAX && next_batch > 0) {
      first_cycle = c;
      pass.first_cycle_s = micros * 1e-6;
      if (ctx.setup_only) {
        break;
      }
    }
  }
  // Arrivals after the last cycle are still submitted, as the sim driver does.
  while (pass.ok && !ctx.setup_only && next_batch < stream.batch_times.size()) {
    advance(stream.batch_times[next_batch]);
    submit(next_batch++);
  }
  end_submit_sample();
  pass.loop_s = SecondsSince(loop_start) - reference_s;
  pass.replay_s = pass.loop_s - pass.first_cycle_s;
  pass.caller_cpu_s = CpuSeconds(false) - cpu0;
  if (tracer != nullptr) {
    tracer->SetEnd(pass_span, Clock::now());
  }
  pass.digest = digest.value();
  if (!pass.ok) {
    return pass;
  }

  // --- Traced passes drain the queue (untimed cycles past the horizon) so the cluster
  // state snapshotted in Finish is complete without the pending queue.
  if (ctx.traced && !ctx.setup_only) {
    double now = stream.cycle_times.back();
    while (now <= stream.drained_by && pass.ok) {
      now += stream.sim.period;
      advance(now);
      if (!target->RunCycle(now, &granted, &error)) {
        Fail(pass, error);
      }
      ++pass.requests;
    }
  }
  if (pass.ok && !target->Finish(ctx.traced, &pass.layers, &error)) {
    Fail(pass, error);
  }
  target.reset();
  if (def.target != TargetKind::kRemote) {
    pass.layers.scheduler_cpu_s = pass.caller_cpu_s;
    pass.layers.scheduler_wall_s = pass.loop_s;
    pass.layers.workers_cpu_s = CpuSeconds(true) - children_cpu0;
  }

  // Split off the first non-empty cycle; remote batch times come from the daemon.
  for (size_t c = 0; c < all_cycle_us.size(); ++c) {
    double batch_us = all_batch_us[c];
    if (batch_us < 0.0 && c < pass.layers.batch_us.size()) {
      batch_us = pass.layers.batch_us[c];
      if (tracer != nullptr) {
        tracer->SetBatchMicros(cycle_spans[c], batch_us);
      }
    }
    pass.batch_total_us += std::max(batch_us, 0.0);
    if (c != first_cycle) {
      pass.cycle_us.push_back(all_cycle_us[c]);
      pass.cycle_slice.push_back(all_cycle_slice[c]);
      pass.batch_us.push_back(batch_us);
    }
  }
  return pass;
}

// --- Metrics --------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Quantile(const std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  SampleSet set;
  set.Reserve(values.size());
  for (double v : values) {
    set.Add(v);
  }
  return set.Quantile(q);
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// Each request's typical time: its median over the passes, which all replay the same
// requests in the same order. The shared host stalls a process for milliseconds at a time,
// for a few percent of requests during its busy spells; a stall hits a request in few
// passes and moves no median, while a request the program makes slower is slower in every
// pass.
template <typename F>
std::vector<double> PerRequestMedians(const std::vector<const Pass*>& passes, F field) {
  if (passes.empty()) {
    return {};
  }
  size_t requests = SIZE_MAX;
  for (const Pass* pass : passes) {
    requests = std::min(requests, field(*pass).size());
  }
  std::vector<double> medians(requests);
  std::vector<double> column(passes.size());
  for (size_t i = 0; i < requests; ++i) {
    for (size_t p = 0; p < passes.size(); ++p) {
      column[p] = field(*passes[p])[i];
    }
    medians[i] = Median(column);
  }
  return medians;
}

template <typename F>
std::vector<double> Gather(const std::vector<const Pass*>& passes, F field) {
  std::vector<double> out;
  for (const Pass* pass : passes) {
    const std::vector<double>& values = field(*pass);
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

template <typename F>
double Sum(const std::vector<const Pass*>& passes, F field) {
  double total = 0.0;
  for (const Pass* pass : passes) {
    total += static_cast<double>(field(*pass));
  }
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A copy of `pass` with its end-to-end timings at the reference speed, by the workload's
// sensitivity: each request scaled by the slices around it, the set-up by those around its
// start, and the replay loop's time outside requests by the mean of its cycles' factors.
Pass AtReferenceSpeed(const WorkloadDef& def, const Pass& pass, const HostReference& reference) {
  const HostSensitivity& s = def.sensitivity;
  Pass scaled = pass;
  double requests_us = 0.0;
  double scaled_requests_us = 0.0;
  auto scale = [&](std::vector<double>& samples, const std::vector<size_t>& slices,
                   double sensitivity) {
    for (size_t i = 0; i < samples.size(); ++i) {
      requests_us += samples[i];
      samples[i] *= reference.Scale(slices[i], sensitivity);
      scaled_requests_us += samples[i];
    }
  };
  scale(scaled.cycle_us, pass.cycle_slice, s.cycle);
  scale(scaled.submit_us, pass.submit_slice, s.submit);
  double setup = reference.Scale(pass.setup_slice, s.setup);
  scaled.generate_s *= setup;
  scaled.construct_s *= setup;
  scaled.first_cycle_s *= setup;
  double outside = setup;
  if (!pass.cycle_slice.empty()) {
    outside = 0.0;
    for (size_t k : pass.cycle_slice) {
      outside += reference.Scale(k, s.setup);
    }
    outside /= static_cast<double>(pass.cycle_slice.size());
  }
  scaled.replay_s = scaled_requests_us * 1e-6 + (pass.replay_s - requests_us * 1e-6) * outside;
  return scaled;
}

// The percentiles are over the stream's requests, each at its typical time
// (PerRequestMedians). tasks_per_s is the stream's tasks over a typical pass: every
// request at its typical time, plus the median over passes of the loop's time outside
// requests. `process_rss_mb` is this process's peak after its first pass: the in-process
// stacks' footprint. The remote stack's is the daemon's own peak. `notes` (if not null)
// receives the sample counts.
std::vector<Metric> EndToEndMetrics(const WorkloadDef& def, const std::vector<const Pass*>& full,
                                    const std::vector<const Pass*>& setups,
                                    double process_rss_mb, std::vector<std::string>* notes) {
  std::vector<double> cycles =
      PerRequestMedians(full, [](const Pass& p) -> auto& { return p.cycle_us; });
  std::vector<double> submits =
      PerRequestMedians(full, [](const Pass& p) -> auto& { return p.submit_us; });
  std::vector<double> outside_requests_s;
  for (const Pass* pass : full) {
    double requests_us = std::accumulate(pass->cycle_us.begin(), pass->cycle_us.end(), 0.0) +
                         std::accumulate(pass->submit_us.begin(), pass->submit_us.end(), 0.0);
    outside_requests_s.push_back(pass->replay_s - requests_us * 1e-6);
  }
  double typical_pass_s = (std::accumulate(cycles.begin(), cycles.end(), 0.0) +
                           std::accumulate(submits.begin(), submits.end(), 0.0)) * 1e-6 +
                          Median(outside_requests_s);
  double tasks = full.empty() ? 0.0 : static_cast<double>(full.front()->tasks);
  std::vector<double> setup_s;
  for (const Pass* pass : setups) {
    setup_s.push_back(pass->setup_s());
  }
  double peak_rss = process_rss_mb;
  if (def.target == TargetKind::kRemote) {
    peak_rss = 0.0;
    for (const Pass* pass : setups) {
      peak_rss = std::max(peak_rss, pass->layers.peak_rss_mb);
    }
  }
  if (notes != nullptr) {
    notes->push_back("cycle_requests " + std::to_string(cycles.size()));
    notes->push_back("submit_requests " + std::to_string(submits.size()));
    notes->push_back("passes " + std::to_string(full.size()));
    notes->push_back("setup_samples " + std::to_string(setup_s.size()));
  }
  return {
      {"cycle_p50_us", Quantile(cycles, 0.5), "us"},
      {"cycle_p99_us", Quantile(cycles, 0.99), "us"},
      {"submit_p50_us", Quantile(submits, 0.5), "us"},
      {"submit_p99_us", Quantile(submits, 0.99), "us"},
      {"tasks_per_s", Ratio(tasks, typical_pass_s), "tasks/s"},
      {"granted_tasks", full.empty() ? 0.0 : static_cast<double>(full.front()->granted), "tasks"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadDef& def, const std::vector<const Pass*>& traced,
                                    const std::vector<const Pass*>& untraced,
                                    const std::vector<const Pass*>& setups) {
  const bool remote = def.target == TargetKind::kRemote;
  double cycles = Sum(traced, [](const Pass& p) { return p.layers.cycles; });
  auto per_cycle = [&](auto field) { return Ratio(Sum(traced, field), cycles); };
  double n = static_cast<double>(traced.size());

  double rescored = Sum(traced, [](const Pass& p) { return p.layers.engine.tasks_rescored; });
  double reused = Sum(traced, [](const Pass& p) { return p.layers.engine.tasks_reused; });
  std::vector<double> batch = Gather(traced, [](const Pass& p) -> auto& { return p.batch_us; });
  std::vector<double> cycle_self;
  for (const Pass* pass : traced) {
    for (size_t i = 0; i < pass->cycle_us.size(); ++i) {
      cycle_self.push_back(pass->cycle_us[i] - std::max(pass->batch_us[i], 0.0));
    }
  }
  std::vector<double> pending =
      remote ? Gather(traced, [](const Pass& p) -> auto& { return p.layers.pending; })
             : Gather(traced, [](const Pass& p) -> auto& { return p.pending; });
  std::vector<double> block_add =
      remote ? Gather(traced, [](const Pass& p) -> auto& { return p.layers.block_add_us; })
             : Gather(traced, [](const Pass& p) -> auto& { return p.block_add_us; });
  double in_request_block_us = remote ? std::accumulate(block_add.begin(), block_add.end(), 0.0)
                                      : 0.0;
  double requests = Sum(traced, [](const Pass& p) { return p.requests; });
  double replay_requests = Sum(traced, [](const Pass& p) {
    return p.submit_us.size() + p.cycle_us.size() + 1;
  });
  double scheduler_wall = Sum(traced, [](const Pass& p) { return p.layers.scheduler_wall_s; });
  std::vector<double> encode, decode;
  double snapshot_bytes = 0.0;
  for (const Pass* pass : traced) {
    if (pass->layers.codec) {
      encode.insert(encode.end(), pass->layers.codec->encode_us.begin(),
                    pass->layers.codec->encode_us.end());
      decode.insert(decode.end(), pass->layers.codec->decode_us.begin(),
                    pass->layers.codec->decode_us.end());
      snapshot_bytes = static_cast<double>(pass->layers.codec->bytes);
    }
  }
  std::vector<double> generate_s, construct_ms, first_cycle_ms;
  for (const Pass* pass : setups) {
    generate_s.push_back(pass->generate_s);
    construct_ms.push_back(pass->construct_s * 1e3);
    first_cycle_ms.push_back(pass->first_cycle_s * 1e3);
  }
  double traced_p50 = Quantile(Gather(traced, [](const Pass& p) -> auto& { return p.cycle_us; }),
                               0.5);
  double untraced_p50 =
      Quantile(Gather(untraced, [](const Pass& p) -> auto& { return p.cycle_us; }), 0.5);

  return {
      {"core.engine.rescored_per_cycle", Ratio(rescored, cycles), "count"},
      {"core.engine.reused_per_cycle", Ratio(reused, cycles), "count"},
      {"core.engine.blocks_refreshed_per_cycle",
       per_cycle([](const Pass& p) { return p.layers.engine.blocks_refreshed; }), "count"},
      {"core.engine.best_alpha_per_cycle",
       per_cycle([](const Pass& p) { return p.layers.engine.best_alpha_recomputes; }), "count"},
      {"core.engine.score_reuse_ratio", Ratio(reused, rescored + reused), "fraction"},
      {"core.engine.full_recomputes",
       Ratio(Sum(traced, [](const Pass& p) { return p.layers.engine.full_recomputes; }), n),
       "count"},
      {"core.engine.merge_allocs",
       Ratio(Sum(traced, [](const Pass& p) { return p.layers.engine.merge_allocs; }), n),
       "count"},
      {"core.scheduler.batch_us_p50", Quantile(batch, 0.5), "us"},
      {"core.scheduler.batch_us_p99", Quantile(batch, 0.99), "us"},
      {"core.online.cycle_self_us_p50", Quantile(cycle_self, 0.5), "us"},
      {"core.online.cycle_self_us_p99", Quantile(cycle_self, 0.99), "us"},
      {"core.online.pending_p50", Quantile(pending, 0.5), "count"},
      {"core.online.pending_max", Quantile(pending, 1.0), "count"},
      {"core.online.granted_per_cycle", per_cycle([](const Pass& p) { return p.layers.allocated; }),
       "count"},
      {"core.online.evicted_per_cycle", per_cycle([](const Pass& p) { return p.layers.evicted; }),
       "count"},
      {"block.add_us_p50", Quantile(block_add, 0.5), "us"},
      {"block.retired_per_pass",
       Ratio(Sum(traced, [](const Pass& p) { return p.layers.retired_blocks; }), n), "count"},
      {"service.messages_per_cycle", per_cycle([](const Pass& p) {
         return p.layers.service.messages_sent + p.layers.service.messages_received;
       }),
       "count"},
      {"service.bytes_per_cycle", per_cycle([](const Pass& p) {
         return p.layers.service.bytes_sent + p.layers.service.bytes_received;
       }),
       "bytes"},
      {"service.score_rounds_per_cycle",
       per_cycle([](const Pass& p) { return p.layers.service.score_rounds; }), "count"},
      {"service.ring_stalls_per_cycle",
       per_cycle([](const Pass& p) { return p.layers.service.ring_stalls; }), "count"},
      {"service.daemon_cpu_frac",
       Ratio(Sum(traced, [](const Pass& p) { return p.layers.scheduler_cpu_s; }), scheduler_wall),
       "fraction"},
      {"service.workers_cpu_frac",
       Ratio(Sum(traced, [](const Pass& p) { return p.layers.workers_cpu_s; }), scheduler_wall),
       "fraction"},
      {"edge.frames_per_request", Ratio(Sum(traced, [](const Pass& p) {
                                          return p.layers.client.frames_sent +
                                                 p.layers.client.frames_received;
                                        }),
                                        requests),
       "count"},
      {"edge.bytes_per_request", Ratio(Sum(traced, [](const Pass& p) {
                                         return p.layers.client.bytes_sent +
                                                p.layers.client.bytes_received;
                                       }),
                                       requests),
       "bytes"},
      {"edge.self_us_per_request",
       Ratio(Sum(traced, [](const Pass& p) { return p.request_us - p.batch_total_us; }) -
                 in_request_block_us,
             replay_requests),
       "us"},
      {"edge.client_cpu_frac",
       Ratio(Sum(traced, [](const Pass& p) { return p.caller_cpu_s; }),
             Sum(traced, [](const Pass& p) { return p.loop_s; })),
       "fraction"},
      {"edge.protocol_rejects", Sum(traced, [](const Pass& p) {
         return p.layers.client.protocol_rejects + p.layers.front.protocol_rejects;
       }),
       "count"},
      {"orchestrator.snapshot_bytes", snapshot_bytes, "bytes"},
      {"orchestrator.encode_us_p50", Quantile(encode, 0.5), "us"},
      {"orchestrator.decode_us_p50", Quantile(decode, 0.5), "us"},
      {"workload.generate_s", Median(generate_s), "s"},
      {"setup.construct_ms", Median(construct_ms), "ms"},
      {"setup.first_cycle_ms", Median(first_cycle_ms), "ms"},
      {"trace.overhead_frac", Ratio(traced_p50, untraced_p50) - 1.0, "fraction"},
  };
}

void PrintLine(const char* workload, const std::string& name, double value,
               const std::string& unit) {
  std::printf("%s %s %.10g %s\n", workload, name.c_str(), value, unit.c_str());
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int PrintDigests() {
  for (bool smoke : {false, true}) {
    for (StreamKind kind : {StreamKind::kBacklog, StreamKind::kChurn}) {
      const char* name = kind == StreamKind::kBacklog ? "Backlog" : "Churn";
      std::optional<uint64_t> digest = ReferenceDigest(StreamSpec(kind, 11, smoke));
      if (!digest) {
        std::fprintf(stderr, "reference run failed for %s\n", name);
        return 1;
      }
      std::printf("{StreamKind::k%s, %s, 11, 0x%016llxULL},\n", name, smoke ? "true" : "false",
                  static_cast<unsigned long long>(*digest));
    }
  }
  return 0;
}

int Run(const Options& options) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (options.workload == w.name) {
      def = &w;
    }
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (engine_backlog, engine_churn, fleet_churn, "
                         "remote_churn)\n", options.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(kSocketDir, ec);
  if (options.trace) {
    std::filesystem::create_directories(options.trace_dir, ec);
  }

  // Before any timing: the curve pool, and the expected digest — pinned, or from the
  // recompute reference.
  StreamCurvePool();
  std::optional<uint64_t> expected = PinnedDigest(def->stream, options.seed, options.smoke);
  if (!expected) {
    expected = ReferenceDigest(StreamSpec(def->stream, options.seed, options.smoke));
  }
  if (!expected) {
    std::fprintf(stderr, "%s: the reference run failed\n", def->name);
    return 1;
  }

  Clock::time_point start = Clock::now();
  Tracer tracer(start);
  std::vector<Pass> passes;
  HostReference reference;
  reference.Run();  // So the first pass has a slice before it.
  double first_pass_rss_mb = 0.0;
  bool traced_once = false;
  // Full passes until the time is up (a traced run needs one of each kind). Set-up-only
  // trials go between them whenever the set-ups fall behind an even pace toward
  // kMinSetups over the run, so a burst of host noise cannot hit most of them; trials
  // then make up any shortfall.
  const size_t min_setups = options.smoke ? 0 : kMinSetups;
  const size_t wanted = options.trace ? 2 : 1;
  size_t full = 0;
  while (passes.empty() || passes.back().ok) {
    double elapsed = SecondsSince(start);
    bool time_up = full >= wanted && (options.smoke || elapsed >= options.seconds);
    if (time_up && passes.size() >= min_setups) {
      break;
    }
    double due = static_cast<double>(min_setups) * std::min(elapsed / options.seconds, 1.0);
    bool setup_only = full > 0 && (time_up || static_cast<double>(passes.size()) < due);
    bool traced = !setup_only && options.trace && full % 2 == 1;
    PassContext ctx{def,    &options,   &tracer,   &reference, static_cast<int>(passes.size()),
                    traced, setup_only, traced && !traced_once};
    traced_once = traced_once || traced;
    passes.push_back(RunPass(ctx));
    reference.Run();  // So every pass has a slice after it.
    if (!setup_only && ++full == 1) {
      // Later passes only add the bench's own sample vectors to the high-water mark.
      first_pass_rss_mb = PeakRssMb();
    }
  }

  // The end-to-end metrics come from the passes at the reference speed, the per-layer
  // metrics from the passes as timed.
  std::vector<Pass> measured;
  for (const Pass& pass : passes) {
    measured.push_back(AtReferenceSpeed(*def, pass, reference));
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t mismatches = 0;
  std::vector<const Pass*> untraced, traced, setups;
  std::vector<const Pass*> measured_untraced, measured_setups;
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& pass = passes[i];
    attempted += pass.requests;
    failed += pass.failed;
    if (!pass.ok) {
      correct = false;
      std::fprintf(stderr, "%s: pass failed: %s\n", def->name, pass.error.c_str());
      continue;
    }
    setups.push_back(&pass);
    measured_setups.push_back(&measured[i]);
    if (pass.setup_only) {
      continue;
    }
    if (pass.digest != *expected) {
      if (mismatches++ == 0) {
        std::fprintf(stderr, "%s: grant digest %016llx, expected %016llx\n", def->name,
                     static_cast<unsigned long long>(pass.digest),
                     static_cast<unsigned long long>(*expected));
      }
      correct = false;
      failed += pass.cycle_us.size() + 1;  // Every cycle of the pass answered wrongly.
    }
    (pass.traced ? traced : untraced).push_back(&pass);
    if (!pass.traced) {
      measured_untraced.push_back(&measured[i]);
    }
  }
  if (untraced.empty() || (options.trace && traced.empty())) {
    correct = false;
  }

  std::vector<std::string> notes;
  std::vector<Metric> end_to_end =
      EndToEndMetrics(*def, measured_untraced, measured_setups, first_pass_rss_mb, &notes);
  for (const Metric& m : end_to_end) {
    PrintLine(def->name, m.name, m.value, m.unit);
  }
  for (const std::string& note : notes) {
    std::printf("%s %s count\n", def->name, note.c_str());
  }
  // The same timings as measured, and the reference they were scaled by.
  for (const Metric& m : EndToEndMetrics(*def, untraced, setups, first_pass_rss_mb, nullptr)) {
    if (m.unit == "us" || m.unit == "s" || m.unit == "tasks/s") {
      PrintLine(def->name, "wall." + m.name, m.value, m.unit);
    }
  }
  PrintLine(def->name, "host.reference_slice_us", reference.median_us(), "us");
  std::printf("%s host.reference_slices %zu count\n", def->name, reference.count());
  std::vector<Metric> per_layer;
  if (options.trace && !traced.empty()) {
    per_layer = PerLayerMetrics(*def, traced, untraced, setups);
    std::printf("%s trace_spans %zu count\n", def->name, tracer.size());
    for (const Metric& m : per_layer) {
      PrintLine(def->name, m.name, m.value, m.unit);
    }
    for (const auto& [layer, seconds] : tracer.SelfSeconds()) {
      PrintLine(def->name, "self_s." + layer, seconds, "s");
    }
    if (def->target == TargetKind::kRemote) {
      // Inside the submit and cycle spans above: the daemon's own block arrivals.
      std::vector<double> adds =
          Gather(traced, [](const Pass& p) -> auto& { return p.layers.block_add_us; });
      PrintLine(def->name, "self_s.daemon.block.add",
                std::accumulate(adds.begin(), adds.end(), 0.0) * 1e-6, "s");
    }
    std::string path = options.trace_dir + "/" + def->name + ".trace.json";
    if (!tracer.WriteChrome(path, "bench")) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      correct = false;
    }
  }
  std::printf("%s digest %016llx %s\n", def->name, static_cast<unsigned long long>(*expected),
              correct ? "ok" : "FAILED");
  PrintJson(correct && failed == 0, std::max<uint64_t>(attempted, 1), failed,
            options.trace ? per_layer : end_to_end);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpack::e2e

int main(int argc, char** argv) {
  using namespace dpack::e2e;
  // Sleeps last as long as they ask. Under the default 50 us timer slack the kernel ends
  // each 50 us poll sleep of the fleet transport anywhere in the next 50 us, wherever some
  // other timer on the host fires, so fleet_churn's cycle_p50_us moved between about 190
  // and 280 us from run to run. Forked workers inherit the setting; the daemon sets it here.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (argc > 1 && std::strcmp(argv[1], "--daemon") == 0) {
    return DaemonMain(argc, argv);
  }
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "dpack_e2e: %s\n", error.c_str());
    return 2;
  }
  char exe[4096];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    std::fprintf(stderr, "dpack_e2e: cannot resolve /proc/self/exe\n");
    return 2;
  }
  exe[len] = '\0';
  options.exe = exe;
  return options.print_digests ? PrintDigests() : Run(options);
}
