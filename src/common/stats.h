// Streaming statistics, quantiles and empirical-CDF lookups for experiment metrics.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dpack {

// Constant-memory accumulator for mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  // The accumulator's full internal state, exposed for checkpointing: Welford updates are
  // order-sensitive, so replaying samples cannot reproduce the accumulator bit-exactly —
  // only restoring these fields can.
  struct State {
    size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };

  void Add(double x);

  State state() const;
  static RunningStat FromState(const State& state);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Sample variance (n - 1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }
  // Coefficient of variation: stddev / mean (0 when mean is 0).
  double variation_coefficient() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores all samples; answers quantile and CDF queries. Suited to experiment-scale data
// (millions of points), not unbounded streams.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  double sum() const;
  double mean() const;
  // Quantile in [0, 1] by linear interpolation; requires at least one sample.
  double Quantile(double q) const;
  double median() const { return Quantile(0.5); }

  // Fraction of samples <= x (empirical CDF).
  double CdfAt(double x) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace dpack

#endif  // SRC_COMMON_STATS_H_
