#include "src/rdp/rdp_curve.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace dpack {

RdpCurve::RdpCurve(AlphaGridPtr grid) : grid_(std::move(grid)) {
  DPACK_CHECK(grid_ != nullptr);
  epsilons_.assign(grid_->size(), 0.0);
}

RdpCurve::RdpCurve(AlphaGridPtr grid, std::vector<double> epsilons)
    : grid_(std::move(grid)), epsilons_(std::move(epsilons)) {
  DPACK_CHECK(grid_ != nullptr);
  DPACK_CHECK_MSG(epsilons_.size() == grid_->size(), "epsilon vector must match grid size");
  for (double e : epsilons_) {
    DPACK_CHECK_MSG(e >= 0.0, "RDP epsilons must be non-negative");
  }
}

bool RdpCurve::IsZero() const {
  return std::all_of(epsilons_.begin(), epsilons_.end(), [](double e) { return e == 0.0; });
}

RdpCurve& RdpCurve::Accumulate(const RdpCurve& other) {
  DPACK_CHECK_MSG(SameGrid(grid_, other.grid_), "cannot compose curves on different grids");
  for (size_t i = 0; i < epsilons_.size(); ++i) {
    epsilons_[i] += other.epsilons_[i];
  }
  return *this;
}

RdpCurve operator+(RdpCurve lhs, const RdpCurve& rhs) {
  lhs.Accumulate(rhs);
  return lhs;
}

RdpCurve RdpCurve::Scaled(double factor) const {
  DPACK_CHECK(factor >= 0.0);
  std::vector<double> scaled(epsilons_.size());
  for (size_t i = 0; i < epsilons_.size(); ++i) {
    scaled[i] = epsilons_[i] * factor;
  }
  return RdpCurve(grid_, std::move(scaled));
}

bool RdpCurve::DominatedBy(const RdpCurve& other) const {
  DPACK_CHECK_MSG(SameGrid(grid_, other.grid_), "grid mismatch");
  for (size_t i = 0; i < epsilons_.size(); ++i) {
    if (epsilons_[i] > other.epsilons_[i]) {
      return false;
    }
  }
  return true;
}

DpTranslation RdpCurve::ToDp(double delta) const {
  DPACK_CHECK(delta > 0.0 && delta < 1.0);
  DpTranslation best;
  best.epsilon = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < epsilons_.size(); ++i) {
    double alpha = grid_->order(i);
    double eps_dp = epsilons_[i] + std::log(1.0 / delta) / (alpha - 1.0);
    if (eps_dp < best.epsilon) {
      best.epsilon = eps_dp;
      best.alpha_index = i;
      best.alpha = alpha;
    }
  }
  return best;
}

RdpCurve BlockCapacityCurve(const AlphaGridPtr& grid, double eps_g, double delta_g) {
  DPACK_CHECK(eps_g > 0.0);
  DPACK_CHECK(delta_g > 0.0 && delta_g < 1.0);
  std::vector<double> capacity(grid->size());
  for (size_t i = 0; i < grid->size(); ++i) {
    double alpha = grid->order(i);
    capacity[i] = std::max(0.0, eps_g - std::log(1.0 / delta_g) / (alpha - 1.0));
  }
  return RdpCurve(grid, std::move(capacity));
}

}  // namespace dpack
