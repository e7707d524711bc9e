// RDP curves: per-order privacy-loss bounds with composition and DP translation.
//
// An `RdpCurve` stores epsilon(alpha) for every order alpha of an `AlphaGrid`. Curves compose
// additively per order (`operator+` and `Accumulate`, §2.2); translation to traditional
// (eps, delta)-DP uses Eq. 2 of the paper, picking the order that minimizes
// eps(alpha) + log(1/delta) / (alpha - 1).

#ifndef SRC_RDP_RDP_CURVE_H_
#define SRC_RDP_RDP_CURVE_H_

#include <cstddef>
#include <vector>

#include "src/rdp/alpha_grid.h"

namespace dpack {

// Result of translating an RDP curve to traditional DP at a fixed delta.
struct DpTranslation {
  double epsilon = 0.0;     // Tightest traditional-DP epsilon across orders.
  size_t alpha_index = 0;   // Index of the order achieving it (the "best alpha").
  double alpha = 0.0;       // The order value itself.
};

class RdpCurve {
 public:
  // Zero curve (no privacy loss) on `grid`.
  explicit RdpCurve(AlphaGridPtr grid);

  // Curve with explicit epsilons, one per grid order. Requires matching sizes and
  // non-negative, finite-or-infinite values.
  RdpCurve(AlphaGridPtr grid, std::vector<double> epsilons);

  const AlphaGridPtr& grid() const { return grid_; }
  size_t size() const { return epsilons_.size(); }
  double epsilon(size_t alpha_index) const { return epsilons_[alpha_index]; }
  const std::vector<double>& epsilons() const { return epsilons_; }

  bool IsZero() const;

  // Pointwise sum: the RDP cost of running both computations (adaptive composition).
  RdpCurve& Accumulate(const RdpCurve& other);
  friend RdpCurve operator+(RdpCurve lhs, const RdpCurve& rhs);

  // Pointwise scale by `factor` >= 0; `Repeat(k)` is the k-fold self-composition.
  RdpCurve Scaled(double factor) const;
  RdpCurve Repeat(size_t k) const { return Scaled(static_cast<double>(k)); }

  // True if this curve is pointwise <= other at every order.
  bool DominatedBy(const RdpCurve& other) const;

  // Translation to (epsilon, delta)-DP via Eq. 2 (best order). Requires 0 < delta < 1.
  DpTranslation ToDp(double delta) const;

 private:
  AlphaGridPtr grid_;
  std::vector<double> epsilons_;
};

// The per-order RDP budget of a block enforcing a global (eps_g, delta_g)-DP guarantee
// (§3.4): capacity(alpha) = eps_g - log(1/delta_g) / (alpha - 1). Orders where this is
// negative get zero capacity (unusable: any positive demand is rejected there).
RdpCurve BlockCapacityCurve(const AlphaGridPtr& grid, double eps_g, double delta_g);

}  // namespace dpack

#endif  // SRC_RDP_RDP_CURVE_H_
