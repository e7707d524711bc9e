// Experiment metrics collected across a scheduling run (§6.1): global efficiency (count and
// weighted), scheduling delay, scheduler runtime, and fair-share breakdown.

#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace dpack {

class AllocationMetrics {
 public:
  // The accumulator's full state, exposed for checkpointing (src/orchestrator/checkpoint.h).
  // Delays are the raw sample vector, in the order added; the cycle-runtime accumulator is
  // field-exact (Welford state is order-sensitive).
  struct State {
    size_t submitted = 0;
    size_t allocated = 0;
    size_t evicted = 0;
    double submitted_weight = 0.0;
    double allocated_weight = 0.0;
    size_t submitted_fair_share = 0;
    size_t allocated_fair_share = 0;
    std::vector<double> delay_samples;
    RunningStat::State cycle_runtime;
  };
  State state() const;
  // Re-adds the delay samples in order, so a state taken before any quantile query (which
  // sorts the sample set in place) restores the delays byte-identically.
  static AllocationMetrics FromState(const State& state);

  void RecordSubmission(double weight, bool fair_share);
  // `delay` is allocation time minus arrival time, in virtual time units.
  void RecordAllocation(double weight, double delay, bool fair_share);
  void RecordEviction(double weight);
  void RecordCycleRuntime(double seconds);

  size_t submitted() const { return submitted_; }
  size_t allocated() const { return allocated_; }
  size_t evicted() const { return evicted_; }
  double submitted_weight() const { return submitted_weight_; }
  double allocated_weight() const { return allocated_weight_; }

  size_t submitted_fair_share() const { return submitted_fair_share_; }
  size_t allocated_fair_share() const { return allocated_fair_share_; }
  // Fraction of allocated tasks that are fair-share tasks (§6.3's fairness measure).
  double AllocatedFairShareFraction() const;

  const SampleSet& delays() const { return delays_; }
  const RunningStat& cycle_runtime_seconds() const { return cycle_runtime_seconds_; }
  double total_runtime_seconds() const { return cycle_runtime_seconds_.sum(); }

  std::string Summary() const;

 private:
  size_t submitted_ = 0;
  size_t allocated_ = 0;
  size_t evicted_ = 0;
  double submitted_weight_ = 0.0;
  double allocated_weight_ = 0.0;
  size_t submitted_fair_share_ = 0;
  size_t allocated_fair_share_ = 0;
  SampleSet delays_;
  RunningStat cycle_runtime_seconds_;
};

}  // namespace dpack

#endif  // SRC_CORE_METRICS_H_
