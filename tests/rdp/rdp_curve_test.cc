#include "src/rdp/rdp_curve.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

TEST(RdpCurveTest, DefaultIsZero) {
  RdpCurve curve(Grid());
  EXPECT_TRUE(curve.IsZero());
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve.epsilon(i), 0.0);
  }
}

TEST(RdpCurveTest, CompositionIsPointwiseAdditive) {
  std::vector<double> e1(Grid()->size(), 1.0);
  std::vector<double> e2(Grid()->size(), 0.0);
  for (size_t i = 0; i < e2.size(); ++i) {
    e2[i] = static_cast<double>(i);
  }
  RdpCurve a(Grid(), e1);
  RdpCurve b(Grid(), e2);
  RdpCurve sum = a + b;
  for (size_t i = 0; i < sum.size(); ++i) {
    EXPECT_DOUBLE_EQ(sum.epsilon(i), 1.0 + static_cast<double>(i));
  }
}

TEST(RdpCurveTest, ScaledAndRepeat) {
  std::vector<double> e(Grid()->size(), 2.0);
  RdpCurve curve(Grid(), e);
  RdpCurve tripled = curve.Repeat(3);
  for (size_t i = 0; i < tripled.size(); ++i) {
    EXPECT_DOUBLE_EQ(tripled.epsilon(i), 6.0);
  }
  EXPECT_TRUE(curve.Scaled(0.0).IsZero());
}

TEST(RdpCurveTest, DominatedBy) {
  std::vector<double> lo(Grid()->size(), 1.0);
  std::vector<double> hi(Grid()->size(), 2.0);
  RdpCurve a(Grid(), lo);
  RdpCurve b(Grid(), hi);
  EXPECT_TRUE(a.DominatedBy(b));
  EXPECT_FALSE(b.DominatedBy(a));
  EXPECT_TRUE(a.DominatedBy(a));
}

TEST(RdpCurveTest, ToDpUsesEqTwo) {
  // A flat curve: eps_dp(alpha) = eps + log(1/delta)/(alpha-1) minimized at the largest
  // alpha.
  std::vector<double> flat(Grid()->size(), 1.0);
  RdpCurve curve(Grid(), flat);
  DpTranslation t = curve.ToDp(1e-6);
  EXPECT_EQ(t.alpha_index, Grid()->size() - 1);
  EXPECT_DOUBLE_EQ(t.alpha, 64.0);
  EXPECT_NEAR(t.epsilon, 1.0 + std::log(1e6) / 63.0, 1e-12);
}

TEST(RdpCurveTest, ToDpPicksInteriorBestAlpha) {
  // A steeply increasing curve moves the best order to the interior.
  std::vector<double> eps(Grid()->size());
  for (size_t i = 0; i < eps.size(); ++i) {
    double alpha = Grid()->order(i);
    eps[i] = alpha * alpha / 30.0;
  }
  RdpCurve curve(Grid(), eps);
  DpTranslation t = curve.ToDp(1e-6);
  EXPECT_GT(t.alpha_index, 0u);
  EXPECT_LT(t.alpha_index, Grid()->size() - 1);
  // It must actually be the minimum across the grid.
  for (size_t i = 0; i < eps.size(); ++i) {
    double candidate = eps[i] + std::log(1e6) / (Grid()->order(i) - 1.0);
    EXPECT_LE(t.epsilon, candidate + 1e-12);
  }
}

TEST(BlockCapacityCurveTest, MatchesFilterInitialization) {
  // capacity(alpha) = eps_g - log(1/delta_g)/(alpha-1), clamped at 0 (§3.4).
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  double log_term = std::log(1e7);
  for (size_t i = 0; i < Grid()->size(); ++i) {
    double alpha = Grid()->order(i);
    double expected = std::max(0.0, 10.0 - log_term / (alpha - 1.0));
    EXPECT_NEAR(capacity.epsilon(i), expected, 1e-12) << "alpha=" << alpha;
  }
  // Low orders are unusable for this budget, high orders close to eps_g.
  EXPECT_DOUBLE_EQ(capacity.epsilon(0), 0.0);
  EXPECT_GT(capacity.epsilon(Grid()->size() - 1), 9.0);
}

TEST(BlockCapacityCurveTest, TranslationRoundTripGuarantee) {
  // Consuming exactly the capacity at one order must translate back to <= (eps_g, delta_g).
  double eps_g = 5.0;
  double delta_g = 1e-6;
  RdpCurve capacity = BlockCapacityCurve(Grid(), eps_g, delta_g);
  for (size_t i = 0; i < Grid()->size(); ++i) {
    if (capacity.epsilon(i) <= 0.0) {
      continue;
    }
    // Translating a consumption equal to the order-i capacity through order i gives back
    // exactly eps_g, so any admitted workload translates to <= (eps_g, delta_g)-DP.
    double eps_dp = capacity.epsilon(i) + std::log(1.0 / delta_g) / (Grid()->order(i) - 1.0);
    EXPECT_NEAR(eps_dp, eps_g, 1e-9);
  }
}

TEST(RdpCurveDeathTest, GridMismatchAborts) {
  RdpCurve a(Grid());
  RdpCurve b(AlphaGrid::TraditionalDp());
  EXPECT_DEATH(a.Accumulate(b), "grid");
}

TEST(RdpCurveDeathTest, NegativeEpsilonAborts) {
  std::vector<double> eps(Grid()->size(), -1.0);
  EXPECT_DEATH(RdpCurve(Grid(), eps), "non-negative");
}

}  // namespace
}  // namespace dpack
