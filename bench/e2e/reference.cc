// The host-speed reference (see HostReference in e2e.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.h"

namespace dpack::e2e {

namespace {

// A slice's time on the baseline machine (a 4-core Intel Xeon VM) in its fast state, where
// runs' median slices took 375 to 390 us. Scaling by kNominalUs / slice time reports a time
// as that machine would have measured it in that state.
constexpr double kNominalUs = 375.0;
// A slice is the fastest of this many parts: a part the host stalled does not count.
constexpr int kPartsPerSlice = 3;
// Slices run at least this often during a replay, so a sample's slices are close to it.
constexpr double kEverySeconds = 0.05;

uint64_t NextRandom(uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 11;
}

// One part of a slice: sort, a priority queue feeding a hash map, an ordered map of small
// vectors, number formatting and parsing, and libm calls — the kinds of work the engine's
// cycle does, in roughly equal shares of time. Fixed work, seeded from the previous part.
double Part(uint64_t& state) {
  constexpr int kItems = 500;
  Clock::time_point start = Clock::now();
  double sink = 0.0;

  std::vector<double> values(kItems);
  for (double& v : values) {
    v = static_cast<double>(NextRandom(state)) * 0x1.0p-53;
  }
  std::sort(values.begin(), values.end());
  std::priority_queue<std::pair<double, int>> heap;
  for (int i = 0; i < kItems; ++i) {
    heap.push({values[static_cast<size_t>(i * 7919 % kItems)] * 3.0 - 1.0, i});
  }
  std::unordered_map<int, double> by_id;
  while (!heap.empty()) {
    auto [score, id] = heap.top();
    heap.pop();
    by_id[id] = score;
    if (score > 0.5) {
      sink += by_id[id / 2];
    }
  }

  std::map<uint64_t, std::vector<double>> lists;
  for (int i = 0; i < kItems; ++i) {
    uint64_t r = NextRandom(state);
    std::vector<double>& list = lists[r % 997];
    list.push_back(static_cast<double>(r) / static_cast<double>(1 + (r & 1023)));
    if (list.size() > 4) {
      lists.erase(r % 997);
    }
  }
  sink += static_cast<double>(lists.size());

  char text[32];
  for (int i = 0; i < kItems / 2; ++i) {
    std::snprintf(text, sizeof(text), "%.12g", values[static_cast<size_t>(i)] * (i + 1));
    sink += std::strtod(text, nullptr);
  }

  for (int i = 0; i < 7 * kItems; ++i) {
    double a = 1.5 + (i % 64) * 0.5;
    sink += std::log1p(values[static_cast<size_t>(i % kItems)] * a) / (a - 1.0) +
            std::exp(-a * values[static_cast<size_t>((i * 31) % kItems)]);
  }

  Clock::time_point end = Clock::now();
  state += static_cast<uint64_t>(std::fmod(std::fabs(sink), 1e9));  // Keeps the work live.
  return MicrosBetween(start, end);
}

}  // namespace

double HostReference::Run() {
  Clock::time_point start = Clock::now();
  double fastest = Part(state_);
  for (int i = 1; i < kPartsPerSlice; ++i) {
    fastest = std::min(fastest, Part(state_));
  }
  slices_us_.push_back(fastest);
  last_ = Clock::now();
  return std::chrono::duration<double>(last_ - start).count();
}

double HostReference::MaybeRun() {
  if (!slices_us_.empty() && SecondsSince(last_) < kEverySeconds) {
    return 0.0;
  }
  return Run();
}

double HostReference::Scale(size_t k, double sensitivity) const {
  if (slices_us_.empty() || sensitivity == 0.0) {
    return 1.0;
  }
  // Slices k-2 to k+1, those that exist: the median of four is the mean of the middle two,
  // so one slice the host stalled does not move it.
  size_t first = k < 2 ? 0 : std::min(k - 2, slices_us_.size() - 1);
  size_t last = std::min(k + 2, slices_us_.size());
  std::vector<double> near(slices_us_.begin() + static_cast<ptrdiff_t>(first),
                           slices_us_.begin() + static_cast<ptrdiff_t>(last));
  std::sort(near.begin(), near.end());
  size_t n = near.size();
  double median = n % 2 == 1 ? near[n / 2] : 0.5 * (near[n / 2 - 1] + near[n / 2]);
  return std::pow(kNominalUs / median, sensitivity);
}

double HostReference::median_us() const {
  if (slices_us_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = slices_us_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(sorted.size() / 2),
                   sorted.end());
  return sorted[sorted.size() / 2];
}

}  // namespace dpack::e2e
