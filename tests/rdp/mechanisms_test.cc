#include "src/rdp/mechanisms.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

TEST(GaussianCurveTest, ClosedForm) {
  double sigma = 2.0;
  RdpCurve curve = GaussianCurve(Grid(), sigma);
  for (size_t i = 0; i < Grid()->size(); ++i) {
    EXPECT_NEAR(curve.epsilon(i), Grid()->order(i) / (2.0 * sigma * sigma), 1e-12);
  }
}

TEST(GaussianCurveTest, MoreNoiseLessLoss) {
  RdpCurve tight = GaussianCurve(Grid(), 4.0);
  RdpCurve loose = GaussianCurve(Grid(), 1.0);
  EXPECT_TRUE(tight.DominatedBy(loose));
}

TEST(LaplaceCurveTest, MatchesMironovClosedForm) {
  // Mironov '17 Prop. 6 direct evaluation at alpha = 2, b = 1:
  // eps(2) = log( (2/3) e^{1} + (1/3) e^{-2} ).
  RdpCurve curve = LaplaceCurve(Grid(), 1.0);
  double expected = std::log(2.0 / 3.0 * std::exp(1.0) + 1.0 / 3.0 * std::exp(-2.0));
  EXPECT_NEAR(curve.epsilon(Grid()->IndexOf(2.0)), expected, 1e-10);
}

TEST(LaplaceCurveTest, ApproachesPureDpAtLargeAlpha) {
  // As alpha -> infinity, Laplace RDP approaches the pure-DP bound 1/b.
  double b = 2.0;
  RdpCurve curve = LaplaceCurve(Grid(), b);
  double at64 = curve.epsilon(Grid()->IndexOf(64.0));
  EXPECT_LT(at64, 1.0 / b);
  EXPECT_GT(at64, 0.8 / b);
}

TEST(LaplaceCurveTest, StableAtSmallScaleLargeAlpha) {
  // b = 0.05 gives (alpha-1)/b = 1260 at alpha = 64; must not overflow.
  RdpCurve curve = LaplaceCurve(Grid(), 0.05);
  double at64 = curve.epsilon(Grid()->IndexOf(64.0));
  EXPECT_TRUE(std::isfinite(at64));
  EXPECT_NEAR(at64, 1.0 / 0.05, 1.0);  // Close to the pure-DP bound 20.
}

TEST(LaplaceCurveTest, MonotoneIncreasingInAlpha) {
  RdpCurve curve = LaplaceCurve(Grid(), 1.5);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve.epsilon(i), curve.epsilon(i - 1) - 1e-12);
  }
}

TEST(SubsampledCurveTest, ZeroRateIsZeroCurve) {
  EXPECT_TRUE(SubsampledGaussianCurve(Grid(), 1.0, 0.0).IsZero());
}

TEST(SubsampledCurveTest, FullRateMatchesBaseAtIntegerOrders) {
  // q = 1: the binomial bound collapses to the base moment, so integer grid orders must
  // reproduce the base Gaussian curve exactly.
  double sigma = 2.0;
  RdpCurve sub = SubsampledGaussianCurve(Grid(), sigma, 1.0);
  RdpCurve base = GaussianCurve(Grid(), sigma);
  for (double alpha : {2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0}) {
    size_t i = Grid()->IndexOf(alpha);
    EXPECT_NEAR(sub.epsilon(i), base.epsilon(i), 1e-9) << "alpha=" << alpha;
  }
}

TEST(SubsampledCurveTest, SubsamplingAmplifiesPrivacy) {
  // q < 1 must be pointwise no worse than the base mechanism at integer orders.
  double sigma = 2.0;
  RdpCurve sub = SubsampledGaussianCurve(Grid(), sigma, 0.01);
  RdpCurve base = GaussianCurve(Grid(), sigma);
  for (double alpha : {2.0, 3.0, 4.0, 8.0, 16.0, 64.0}) {
    size_t i = Grid()->IndexOf(alpha);
    EXPECT_LE(sub.epsilon(i), base.epsilon(i) + 1e-12);
  }
  // And dramatically better at small alpha (roughly q^2 scaling).
  size_t i3 = Grid()->IndexOf(3.0);
  EXPECT_LT(sub.epsilon(i3), base.epsilon(i3) * 0.01);
}

TEST(SubsampledCurveTest, MonotoneInSamplingRate) {
  RdpCurve lo = SubsampledGaussianCurve(Grid(), 1.5, 0.01);
  RdpCurve hi = SubsampledGaussianCurve(Grid(), 1.5, 0.1);
  EXPECT_TRUE(lo.DominatedBy(hi));
}

TEST(SubsampledCurveTest, FractionalOrdersInterpolateBetweenIntegers) {
  // The interpolated log-moment at alpha in (1, 2) must give eps between 0 and eps(2)
  // scaled appropriately; sanity: finite, non-negative, and below the alpha=2 value times
  // the (alpha-1) ratio bound.
  RdpCurve sub = SubsampledGaussianCurve(Grid(), 1.0, 0.05);
  double e15 = sub.epsilon(Grid()->IndexOf(1.5));
  double e2 = sub.epsilon(Grid()->IndexOf(2.0));
  EXPECT_GE(e15, 0.0);
  // (alpha-1) eps(alpha) interpolation: 0.5 * e15 = 0.5 * logA(2) => e15 == logA(2) = e2.
  EXPECT_NEAR(e15, e2, 1e-9);
}

TEST(SubsampledLaplaceTest, AmplifiesBase) {
  RdpCurve sub = SubsampledLaplaceCurve(Grid(), 1.0, 0.05);
  RdpCurve base = LaplaceCurve(Grid(), 1.0);
  for (double alpha : {2.0, 3.0, 4.0, 8.0, 64.0}) {
    size_t i = Grid()->IndexOf(alpha);
    EXPECT_LE(sub.epsilon(i), base.epsilon(i) + 1e-12);
  }
}

TEST(MechanismSpecTest, CompositionScalesLinearly) {
  MechanismSpec spec{MechanismType::kComposedGaussian, 2.0, 0.0, 10};
  RdpCurve curve = spec.BuildCurve(Grid());
  RdpCurve base = GaussianCurve(Grid(), 2.0);
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_NEAR(curve.epsilon(i), 10.0 * base.epsilon(i), 1e-9);
  }
}

TEST(MechanismSpecTest, LaplaceGaussianComposition) {
  MechanismSpec spec{MechanismType::kLaplaceGaussianComposition, 2.0, 0.0, 1};
  RdpCurve curve = spec.BuildCurve(Grid());
  RdpCurve expected = LaplaceCurve(Grid(), 2.0) + GaussianCurve(Grid(), 2.0);
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_NEAR(curve.epsilon(i), expected.epsilon(i), 1e-12);
  }
}

// Reproduces the qualitative content of Fig. 2: different mechanisms at sigma (or b) = 2
// have different best alphas after DP translation, and composing them yields a tighter
// global epsilon than worst-case naive addition.
TEST(Fig2Test, BestAlphasDifferAcrossMechanisms) {
  double delta = 1e-6;
  RdpCurve gaussian = GaussianCurve(Grid(), 2.0);
  RdpCurve subsampled = SubsampledGaussianCurve(Grid(), 1.0, 0.2);
  RdpCurve laplace = LaplaceCurve(Grid(), 2.0);

  DpTranslation tg = gaussian.ToDp(delta);
  DpTranslation ts = subsampled.ToDp(delta);
  DpTranslation tl = laplace.ToDp(delta);

  // Subsampled Gaussian is tighter at lower alpha; Laplace translates best at large alpha.
  EXPECT_LT(ts.alpha, tg.alpha);
  EXPECT_GE(tl.alpha, tg.alpha);

  // Composition through RDP beats adding the three translated epsilons.
  RdpCurve composition = gaussian + subsampled + laplace;
  DpTranslation tc = composition.ToDp(delta);
  EXPECT_LT(tc.epsilon, tg.epsilon + ts.epsilon + tl.epsilon);
}

}  // namespace
}  // namespace dpack
