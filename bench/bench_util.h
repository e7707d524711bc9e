// Shared plumbing for the experiment harnesses: scale flags and common fixtures.
//
// Every figure/table binary accepts `--quick` (shrink workloads ~4x for smoke runs) and
// `--full` (paper-scale). The default is a medium scale that reproduces every qualitative
// shape in minutes on a laptop.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <string>

#include "src/dpack/dpack.h"

namespace dpack::bench {

enum class Scale { kQuick, kDefault, kFull };

// Parses --quick / --full from argv (anything else is ignored).
Scale ParseScale(int argc, char** argv);

// The path after `--json` in argv, or "" when the flag is absent (the counter-dump mode of
// fig5, fig10, fig11 and fig12).
std::string ParseJsonPath(int argc, char** argv);

// Multiplier applied to workload sizes: 0.25 for quick, 1 for default, 4 for full.
double ScaleFactor(Scale scale);

// The reference block budget used across all experiments: (eps_g = 10, delta_g = 1e-7), the
// microbenchmark's setting (§6.2).
constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

// Builds the shared curve pool against the reference budget.
const CurvePool& SharedPool();

// Prints a one-line banner for an experiment.
void Banner(const std::string& experiment, const std::string& paper_reference);

// One entry for WriteBenchCountersJson: a benchmark name plus numeric fields, emitted in
// insertion order.
struct BenchJsonEntry {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

// Writes entries in google-benchmark's {"benchmarks": [...]} JSON shape — the single
// encoding scripts/check_bench_regression.py parses. fig5 and fig10 share this writer so
// the CI gate's producers cannot drift apart. Returns false on I/O failure (callers must
// propagate it: a missing counters file should fail the bench step, not the gate step).
bool WriteBenchCountersJson(const std::string& path,
                            const std::vector<BenchJsonEntry>& entries);

}  // namespace dpack::bench

#endif  // BENCH_BENCH_UTIL_H_
