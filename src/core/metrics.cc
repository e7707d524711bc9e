#include "src/core/metrics.h"

#include <sstream>

namespace dpack {

AllocationMetrics::State AllocationMetrics::state() const {
  return {submitted_,
          allocated_,
          evicted_,
          submitted_weight_,
          allocated_weight_,
          submitted_fair_share_,
          allocated_fair_share_,
          delays_.samples(),
          cycle_runtime_seconds_.state()};
}

AllocationMetrics AllocationMetrics::FromState(const State& state) {
  AllocationMetrics metrics;
  metrics.submitted_ = state.submitted;
  metrics.allocated_ = state.allocated;
  metrics.evicted_ = state.evicted;
  metrics.submitted_weight_ = state.submitted_weight;
  metrics.allocated_weight_ = state.allocated_weight;
  metrics.submitted_fair_share_ = state.submitted_fair_share;
  metrics.allocated_fair_share_ = state.allocated_fair_share;
  metrics.delays_.Reserve(state.delay_samples.size());
  for (double delay : state.delay_samples) {
    metrics.delays_.Add(delay);
  }
  metrics.cycle_runtime_seconds_ = RunningStat::FromState(state.cycle_runtime);
  return metrics;
}

void AllocationMetrics::RecordSubmission(double weight, bool fair_share) {
  ++submitted_;
  submitted_weight_ += weight;
  if (fair_share) {
    ++submitted_fair_share_;
  }
}

void AllocationMetrics::RecordAllocation(double weight, double delay, bool fair_share) {
  ++allocated_;
  allocated_weight_ += weight;
  delays_.Add(delay);
  if (fair_share) {
    ++allocated_fair_share_;
  }
}

void AllocationMetrics::RecordEviction(double /*weight*/) { ++evicted_; }

void AllocationMetrics::RecordCycleRuntime(double seconds) {
  cycle_runtime_seconds_.Add(seconds);
}

double AllocationMetrics::AllocatedFairShareFraction() const {
  if (allocated_ == 0) {
    return 0.0;
  }
  return static_cast<double>(allocated_fair_share_) / static_cast<double>(allocated_);
}

std::string AllocationMetrics::Summary() const {
  std::ostringstream os;
  os << "submitted=" << submitted_ << " allocated=" << allocated_ << " evicted=" << evicted_
     << " allocated_weight=" << allocated_weight_;
  if (delays_.count() > 0) {
    os << " median_delay=" << delays_.median();
  }
  return os.str();
}

}  // namespace dpack
