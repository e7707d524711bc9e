#include "src/block/privacy_block.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/block/version_tree.h"
#include "src/common/check.h"

namespace dpack {

PrivacyBlock::PrivacyBlock(BlockId id, RdpCurve capacity, double arrival_time,
                           double initial_unlocked)
    : id_(id),
      capacity_(std::move(capacity)),
      consumed_(capacity_.grid()),
      arrival_time_(arrival_time),
      unlocked_fraction_(initial_unlocked) {
  DPACK_CHECK(initial_unlocked >= 0.0 && initial_unlocked <= 1.0);
  RefreshLimits();
}

PrivacyBlock::PrivacyBlock(BlockId id, const AlphaGridPtr& grid, double eps_g, double delta_g,
                           double arrival_time, double initial_unlocked)
    : PrivacyBlock(id, BlockCapacityCurve(grid, eps_g, delta_g), arrival_time,
                   initial_unlocked) {}

PrivacyBlock PrivacyBlock::Restore(BlockId id, RdpCurve capacity, double arrival_time,
                                   double unlocked_fraction, RdpCurve consumed,
                                   uint64_t version) {
  DPACK_CHECK_MSG(SameGrid(consumed.grid(), capacity.grid()), "restore grid mismatch");
  for (size_t i = 0; i < consumed.size(); ++i) {
    double eps = consumed.epsilon(i);
    DPACK_CHECK_MSG(eps >= 0.0 && !std::isnan(eps), "restore consumed out of range");
  }
  PrivacyBlock block(id, std::move(capacity), arrival_time, unlocked_fraction);
  block.consumed_ = std::move(consumed);
  block.version_ = version;
  return block;
}

PrivacyBlock::PrivacyBlock(const PrivacyBlock& other)
    : id_(other.id_),
      capacity_(other.capacity_),
      consumed_(other.consumed_),
      arrival_time_(other.arrival_time_),
      unlocked_fraction_(other.unlocked_fraction_),
      version_(other.version_),
      sink_(nullptr),
      limits_(other.limits_) {}

PrivacyBlock& PrivacyBlock::operator=(const PrivacyBlock& other) {
  id_ = other.id_;
  capacity_ = other.capacity_;
  consumed_ = other.consumed_;
  arrival_time_ = other.arrival_time_;
  unlocked_fraction_ = other.unlocked_fraction_;
  version_ = other.version_;
  sink_ = nullptr;
  limits_ = other.limits_;
  return *this;
}

void PrivacyBlock::BumpVersion() {
  ++version_;
  if (sink_ != nullptr) {
    sink_->OnBump(id_);
  }
}

void PrivacyBlock::RefreshLimits() {
  limits_.resize(capacity_.size());
  for (size_t i = 0; i < limits_.size(); ++i) {
    double cap = UnlockedCapacityAt(i);
    // An order whose unlocked capacity is not positive is unusable under the global
    // guarantee: no non-negative consumption is <= -inf.
    limits_[i] = cap > 0.0 ? AdmissionLimit(cap) : -std::numeric_limits<double>::infinity();
  }
}

void PrivacyBlock::SetUnlockedFraction(double fraction) {
  DPACK_CHECK(fraction >= 0.0 && fraction <= 1.0);
  // Unlocking is monotone: budget never re-locks, so stale (smaller) updates are ignored.
  // Only an effective increase changes the available capacity, hence the version.
  if (fraction > unlocked_fraction_) {
    unlocked_fraction_ = fraction;
    RefreshLimits();
    BumpVersion();
  }
}

double PrivacyBlock::UnlockedCapacityAt(size_t alpha_index) const {
  return unlocked_fraction_ * capacity_.epsilon(alpha_index);
}

double PrivacyBlock::AvailableAt(size_t alpha_index) const {
  return std::max(0.0, UnlockedCapacityAt(alpha_index) - consumed_.epsilon(alpha_index));
}

bool PrivacyBlock::CanAccept(const RdpCurve& demand) const {
  DPACK_CHECK_MSG(SameGrid(demand.grid(), capacity_.grid()), "grid mismatch");
  const std::vector<double>& consumed = consumed_.epsilons();
  const std::vector<double>& need = demand.epsilons();
  for (size_t i = 0; i < limits_.size(); ++i) {
    if (consumed[i] + need[i] <= limits_[i]) {
      return true;
    }
  }
  return false;
}

void PrivacyBlock::Commit(const RdpCurve& demand) {
  DPACK_CHECK_MSG(CanAccept(demand), "Commit on a demand the filter rejects");
  consumed_.Accumulate(demand);
  BumpVersion();
}

bool PrivacyBlock::Exhausted() const {
  for (size_t i = 0; i < capacity_.size(); ++i) {
    double cap = capacity_.epsilon(i);
    if (cap <= 0.0) {
      continue;  // Order unusable under the global guarantee.
    }
    // Same slack as CanAccept, so a block consumed to within float noise of capacity
    // counts as exhausted.
    if (!OrderExhausted(consumed_.epsilon(i), cap)) {
      return false;
    }
  }
  return true;
}

}  // namespace dpack
