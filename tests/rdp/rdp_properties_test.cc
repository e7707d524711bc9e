// Parameterized property sweeps over the RDP substrate: analytic monotonicities that must
// hold for every mechanism parameterization the workloads draw from.

#include <cmath>

#include <gtest/gtest.h>

#include "src/block/privacy_block.h"
#include "src/rdp/mechanisms.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

// --- Noise monotonicity: more noise never increases privacy loss at any order. ---

class NoiseSweepTest : public testing::TestWithParam<double> {};

TEST_P(NoiseSweepTest, GaussianMonotoneInSigma) {
  double sigma = GetParam();
  RdpCurve tighter = GaussianCurve(Grid(), sigma * 1.5);
  RdpCurve looser = GaussianCurve(Grid(), sigma);
  EXPECT_TRUE(tighter.DominatedBy(looser));
}

TEST_P(NoiseSweepTest, LaplaceMonotoneInScale) {
  double b = GetParam();
  EXPECT_TRUE(LaplaceCurve(Grid(), b * 1.5).DominatedBy(LaplaceCurve(Grid(), b)));
}

TEST_P(NoiseSweepTest, SubsampledGaussianMonotoneInSigma) {
  double sigma = GetParam();
  EXPECT_TRUE(SubsampledGaussianCurve(Grid(), sigma * 1.5, 0.05)
                  .DominatedBy(SubsampledGaussianCurve(Grid(), sigma, 0.05)));
}

TEST_P(NoiseSweepTest, DpTranslationMonotoneInDelta) {
  // A larger failure probability delta always yields a smaller-or-equal epsilon.
  RdpCurve curve = GaussianCurve(Grid(), GetParam());
  EXPECT_LE(curve.ToDp(1e-5).epsilon, curve.ToDp(1e-6).epsilon);
  EXPECT_LE(curve.ToDp(1e-6).epsilon, curve.ToDp(1e-9).epsilon);
}

TEST_P(NoiseSweepTest, CompositionDominatesParts) {
  // A composition's curve is pointwise >= each component's.
  RdpCurve a = GaussianCurve(Grid(), GetParam());
  RdpCurve b = LaplaceCurve(Grid(), 2.0);
  RdpCurve sum = a + b;
  EXPECT_TRUE(a.DominatedBy(sum));
  EXPECT_TRUE(b.DominatedBy(sum));
}

INSTANTIATE_TEST_SUITE_P(Noises, NoiseSweepTest,
                         testing::Values(0.5, 0.8, 1.0, 1.5, 2.0, 4.0, 8.0, 20.0));

// --- Sampling-rate monotonicity across the q range used by the generators. ---

class SamplingSweepTest : public testing::TestWithParam<double> {};

TEST_P(SamplingSweepTest, AmplificationMonotoneInRate) {
  double q = GetParam();
  RdpCurve lo = SubsampledGaussianCurve(Grid(), 1.2, q);
  RdpCurve hi = SubsampledGaussianCurve(Grid(), 1.2, std::min(1.0, q * 2.0));
  EXPECT_TRUE(lo.DominatedBy(hi));
}

TEST_P(SamplingSweepTest, SubsampledNeverWorseThanBaseAtIntegerOrders) {
  double q = GetParam();
  RdpCurve sub = SubsampledLaplaceCurve(Grid(), 1.0, q);
  RdpCurve base = LaplaceCurve(Grid(), 1.0);
  for (double alpha : {2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0}) {
    size_t i = Grid()->IndexOf(alpha);
    EXPECT_LE(sub.epsilon(i), base.epsilon(i) + 1e-12) << "q=" << q << " alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingSweepTest,
                         testing::Values(1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5));

// --- Budget monotonicity for block filters and capacity curves. ---

class BudgetSweepTest : public testing::TestWithParam<double> {};

TEST_P(BudgetSweepTest, CapacityMonotoneInEpsG) {
  double eps_g = GetParam();
  RdpCurve smaller = BlockCapacityCurve(Grid(), eps_g, 1e-7);
  RdpCurve larger = BlockCapacityCurve(Grid(), eps_g * 2.0, 1e-7);
  EXPECT_TRUE(smaller.DominatedBy(larger));
}

TEST_P(BudgetSweepTest, FilterAdmitsMoreWithLargerBudget) {
  double eps_g = GetParam();
  RdpCurve step = GaussianCurve(Grid(), 4.0);
  auto count = [&](double eps) {
    PrivacyBlock block(0, Grid(), eps, 1e-7, 0.0);
    int admitted = 0;
    while (block.CanAccept(step) && admitted < 100000) {
      block.Commit(step);
      ++admitted;
    }
    return admitted;
  };
  EXPECT_LE(count(eps_g), count(eps_g * 2.0));
}

TEST_P(BudgetSweepTest, FilterNeverBreaksGuarantee) {
  double eps_g = GetParam();
  double delta_g = 1e-7;
  PrivacyBlock block(0, Grid(), eps_g, delta_g, 0.0);
  RdpCurve step = SubsampledGaussianCurve(Grid(), 1.0, 0.05).Repeat(50);
  while (block.CanAccept(step)) {
    block.Commit(step);
  }
  double best_eps = 1e300;
  for (size_t i = 0; i < Grid()->size(); ++i) {
    if (block.capacity().epsilon(i) > 0.0 &&
        block.consumed().epsilon(i) <= block.capacity().epsilon(i) + 1e-6) {
      best_eps = std::min(best_eps, block.consumed().epsilon(i) +
                                        std::log(1.0 / delta_g) / (Grid()->order(i) - 1.0));
    }
  }
  EXPECT_LE(best_eps, eps_g + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest, testing::Values(2.0, 5.0, 10.0, 20.0));

}  // namespace
}  // namespace dpack
