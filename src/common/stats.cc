#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace dpack {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

RunningStat::State RunningStat::state() const {
  return State{count_, mean_, m2_, min_, max_, sum_};
}

RunningStat RunningStat::FromState(const State& state) {
  RunningStat stat;
  stat.count_ = state.count;
  stat.mean_ = state.mean;
  stat.m2_ = state.m2;
  stat.min_ = state.min;
  stat.max_ = state.max;
  stat.sum_ = state.sum;
  return stat;
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::min() const {
  DPACK_CHECK(count_ > 0);
  return min_;
}

double RunningStat::max() const {
  DPACK_CHECK(count_ > 0);
  return max_;
}

double RunningStat::variation_coefficient() const {
  if (count_ == 0 || mean_ == 0.0) {
    return 0.0;
  }
  return stddev() / mean_;
}

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::sum() const {
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s;
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum() / static_cast<double>(samples_.size());
}

double SampleSet::Quantile(double q) const {
  DPACK_CHECK(!samples_.empty());
  DPACK_CHECK(q >= 0.0 && q <= 1.0);
  EnsureSorted();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  double pos = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::CdfAt(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

}  // namespace dpack
