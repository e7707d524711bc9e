#include "src/block/privacy_block.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/core/metrics.h"
#include "src/orchestrator/checkpoint.h"
#include "src/rdp/mechanisms.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

RdpCurve FlatDemand(double eps) {
  return RdpCurve(Grid(), std::vector<double>(Grid()->size(), eps));
}

TEST(PrivacyBlockTest, CapacityFromGlobalGuarantee) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  RdpCurve expected = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  for (size_t i = 0; i < Grid()->size(); ++i) {
    EXPECT_DOUBLE_EQ(block.capacity().epsilon(i), expected.epsilon(i));
  }
  EXPECT_TRUE(block.consumed().IsZero());
  EXPECT_DOUBLE_EQ(block.unlocked_fraction(), 1.0);
}

TEST(PrivacyBlockTest, AcceptsWithinCapacityAtSomeOrder) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  // Flat demand of 5: fits at large alphas (capacity ~9.7) even though low alphas have
  // zero capacity — the exists-alpha semantic.
  EXPECT_TRUE(block.CanAccept(FlatDemand(5.0)));
  // Flat demand of 11 exceeds every order (max capacity < 10).
  EXPECT_FALSE(block.CanAccept(FlatDemand(11.0)));
}

TEST(PrivacyBlockTest, VersionTracksEffectiveStateChanges) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0, /*initial_unlocked=*/0.0);
  EXPECT_EQ(block.version(), 0u);
  block.SetUnlockedFraction(0.5);
  EXPECT_EQ(block.version(), 1u);
  block.SetUnlockedFraction(0.5);  // No effective change: version stable.
  EXPECT_EQ(block.version(), 1u);
  block.SetUnlockedFraction(0.2);  // Stale (monotone unlocking): ignored entirely.
  EXPECT_EQ(block.version(), 1u);
  block.Commit(FlatDemand(1.0));
  EXPECT_EQ(block.version(), 2u);
  block.Commit(FlatDemand(1.0));
  EXPECT_EQ(block.version(), 3u);
}

TEST(PrivacyBlockTest, CommitAccumulatesAndDepletes) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  RdpCurve demand = FlatDemand(4.0);
  EXPECT_TRUE(block.CanAccept(demand));
  block.Commit(demand);
  EXPECT_TRUE(block.CanAccept(demand));  // 8 still fits at alpha = 64 (cap 9.74).
  block.Commit(demand);
  EXPECT_FALSE(block.CanAccept(demand));  // 12 exceeds every order.
}

TEST(PrivacyBlockTest, ExistsAlphaSemanticOverspendsOtherOrders) {
  // A demand tailored to alpha = 64 can exceed capacity at every other order and still be
  // admitted as long as alpha = 64 holds.
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  std::vector<double> eps(Grid()->size(), 1000.0);
  eps[Grid()->IndexOf(64.0)] = 1.0;
  RdpCurve demand(Grid(), eps);
  EXPECT_TRUE(block.CanAccept(demand));
  block.Commit(demand);
  EXPECT_TRUE(block.CanAccept(demand));
  for (int i = 0; i < 8; ++i) {
    block.Commit(demand);  // 9 total: 9 <= 9.74 at alpha = 64.
  }
  EXPECT_FALSE(block.CanAccept(demand));  // 10 > 9.74.
}

TEST(PrivacyBlockTest, AvailableCurveClampsAtZero) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  std::vector<double> eps(Grid()->size(), 20.0);
  eps[Grid()->IndexOf(64.0)] = 1.0;
  block.Commit(RdpCurve(Grid(), eps));
  RdpCurve available = block.AvailableCurve();
  for (size_t i = 0; i < available.size(); ++i) {
    EXPECT_GE(available.epsilon(i), 0.0);
  }
  EXPECT_NEAR(available.epsilon(Grid()->IndexOf(64.0)),
              block.capacity().epsilon(Grid()->IndexOf(64.0)) - 1.0, 1e-12);
  // Orders where consumption exceeded capacity have zero available budget.
  EXPECT_DOUBLE_EQ(available.epsilon(Grid()->IndexOf(8.0)), 0.0);
}

TEST(PrivacyBlockTest, UnlockingGatesAdmission) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0, /*initial_unlocked=*/0.0);
  RdpCurve demand = FlatDemand(0.5);
  EXPECT_FALSE(block.CanAccept(demand));
  // 10% unlocked: alpha = 64 capacity is ~0.974 >= 0.5.
  block.SetUnlockedFraction(0.1);
  EXPECT_TRUE(block.CanAccept(demand));
}

TEST(PrivacyBlockTest, UnlockingIsMonotone) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0, /*initial_unlocked=*/0.0);
  block.SetUnlockedFraction(0.5);
  block.SetUnlockedFraction(0.2);  // Stale update: ignored.
  EXPECT_DOUBLE_EQ(block.unlocked_fraction(), 0.5);
}

TEST(PrivacyBlockTest, ZeroDemandAlwaysAccepted) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  block.SetUnlockedFraction(0.1);
  EXPECT_TRUE(block.CanAccept(RdpCurve(Grid())));
}

TEST(PrivacyBlockTest, ExhaustedDetection) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  EXPECT_FALSE(block.Exhausted());
  // A demand that exactly exhausts alpha = 64 and overshoots every other order leaves no
  // strictly positive remaining capacity anywhere.
  std::vector<double> eps(Grid()->size(), 100.0);
  size_t i64 = Grid()->IndexOf(64.0);
  eps[i64] = block.capacity().epsilon(i64);
  block.Commit(RdpCurve(Grid(), eps));
  EXPECT_TRUE(block.Exhausted());
}

TEST(PrivacyBlockTest, ExhaustedToleratesFloatNoise) {
  // Same tolerance as CanAccept: a block consumed to within float noise of capacity at
  // every usable order can never admit a meaningful demand and must report exhausted.
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  std::vector<double> eps(Grid()->size(), 0.0);
  for (size_t i = 0; i < Grid()->size(); ++i) {
    double cap = block.capacity().epsilon(i);
    eps[i] = cap > 0.0 ? cap * (1.0 - 1e-12) : 100.0;
  }
  block.Commit(RdpCurve(Grid(), eps));
  EXPECT_TRUE(block.Exhausted());
}

TEST(PrivacyBlockTest, NotExhaustedWithUsableRemainder) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  // Consume 90% everywhere: every usable order keeps a meaningful remainder.
  block.Commit(block.capacity().Scaled(0.9));
  EXPECT_FALSE(block.Exhausted());
}

TEST(PrivacyBlockTest, SmallerDemandMayFollowRejection) {
  // A rejection does not halt the filter: it only means that computation must not run, and
  // a smaller demand that still fits at some order is admitted afterwards.
  PrivacyBlock block(0, Grid(), 6.0, 1e-6, 0.0);
  RdpCurve big = GaussianCurve(Grid(), 1.0).Repeat(4);
  RdpCurve small = GaussianCurve(Grid(), 20.0);
  while (block.CanAccept(big)) {
    block.Commit(big);
  }
  EXPECT_FALSE(block.CanAccept(big));
  EXPECT_TRUE(block.CanAccept(small));
  block.Commit(small);
}

TEST(PrivacyBlockTest, AdmitsExactlyWhileSomeOrderFits) {
  // Charging one step at a time, the block accepts exactly while its consumption plus the
  // step stays WithinCapacity at some usable order.
  PrivacyBlock block(0, Grid(), 6.0, 1e-6, 0.0);
  RdpCurve step = LaplaceCurve(Grid(), 3.0);
  for (int i = 0; i < 100; ++i) {
    RdpCurve next = block.consumed() + step;
    bool fits = false;
    for (size_t a = 0; a < Grid()->size(); ++a) {
      double cap = block.capacity().epsilon(a);
      fits = fits || (cap > 0.0 && WithinCapacity(next.epsilon(a), cap));
    }
    ASSERT_EQ(block.CanAccept(step), fits) << "step " << i;
    if (!fits) {
      EXPECT_GT(i, 0);
      return;
    }
    block.Commit(step);
  }
  FAIL() << "100 steps never filled the block";
}

TEST(PrivacyBlockTest, ConsumedCurveTranslatesToGrowingDp) {
  // The consumed curve is the block's running loss: its (eps, delta)-DP translation (Eq. 2)
  // never shrinks as commits compose, and ten Gaussian steps cost far less than ten times
  // one (RDP composition scales with the square root).
  PrivacyBlock block(0, Grid(), 1000.0, 1e-7, 0.0);
  block.Commit(GaussianCurve(Grid(), 2.0));
  double after1 = block.consumed().ToDp(1e-6).epsilon;
  double last = after1;
  for (int i = 0; i < 9; ++i) {
    block.Commit(GaussianCurve(Grid(), 2.0));
    double eps = block.consumed().ToDp(1e-6).epsilon;
    EXPECT_GE(eps, last);
    last = eps;
  }
  EXPECT_GT(last, after1);
  EXPECT_LT(last, 10.0 * after1);
}

TEST(PrivacyBlockTest, GuaranteeHoldsAfterRandomAdaptiveSequence) {
  // Property 6 under an adaptive mix with rejections: after any sequence of admitted
  // demands, translating the consumed loss at some usable order certifies (eps_g, delta_g).
  double eps_g = 5.0;
  double delta_g = 1e-6;
  Rng rng(3);
  PrivacyBlock block(0, Grid(), eps_g, delta_g, 0.0);
  for (int round = 0; round < 200; ++round) {
    RdpCurve loss = rng.Bernoulli(0.5) ? GaussianCurve(Grid(), rng.Uniform(2.0, 20.0))
                                       : LaplaceCurve(Grid(), rng.Uniform(2.0, 30.0));
    if (block.CanAccept(loss)) {
      block.Commit(loss);
    }
  }
  bool certified = false;
  for (size_t i = 0; i < Grid()->size(); ++i) {
    double cap = block.capacity().epsilon(i);
    if (cap > 0.0 && block.consumed().epsilon(i) <= cap + 1e-6) {
      double eps_dp =
          block.consumed().epsilon(i) + std::log(1.0 / delta_g) / (Grid()->order(i) - 1.0);
      EXPECT_LE(eps_dp, eps_g + 1e-6);
      certified = true;
    }
  }
  EXPECT_TRUE(certified);
}

// The admission rule has one home. At one ulp either side of both of its boundaries
// (cap + slack for admission, cap - slack for exhaustion), CanAccept, Exhausted and
// ValidateSnapshot must give the verdicts of WithinCapacity and OrderExhausted.
TEST(AdmissionRuleTest, EveryCheckAgreesWithTheHelpersAtTheBoundaries) {
  size_t i64 = Grid()->IndexOf(64.0);
  double full = BlockCapacityCurve(Grid(), 10.0, 1e-7).epsilon(i64);
  const double up = std::numeric_limits<double>::infinity();
  for (double cap : {full, 0.37 * full, 1e-3}) {
    // Only alpha = 64 is usable, so each verdict rests on that order alone.
    std::vector<double> cap_eps(Grid()->size(), 0.0);
    cap_eps[i64] = cap;
    RdpCurve capacity(Grid(), cap_eps);
    double admit_edge = cap + AdmissionSlack(cap);
    double exhaust_edge = cap - AdmissionSlack(cap);
    // The helpers' own boundaries: the admission edge itself fits and one ulp above does
    // not; the exhaustion edge is exhausted and one ulp below is not (for these caps).
    EXPECT_TRUE(WithinCapacity(admit_edge, cap));
    EXPECT_FALSE(WithinCapacity(std::nextafter(admit_edge, up), cap));
    EXPECT_TRUE(OrderExhausted(exhaust_edge, cap));
    EXPECT_FALSE(OrderExhausted(std::nextafter(exhaust_edge, -up), cap));

    for (double value : {std::nextafter(admit_edge, -up), admit_edge,
                         std::nextafter(admit_edge, up), std::nextafter(exhaust_edge, -up),
                         exhaust_edge, std::nextafter(exhaust_edge, up)}) {
      SCOPED_TRACE(testing::Message() << "cap " << cap << " value " << value);
      bool within = WithinCapacity(value, cap);
      bool exhausted = OrderExhausted(value, cap);
      std::vector<double> value_eps(Grid()->size(), 0.0);
      value_eps[i64] = value;
      RdpCurve at_value(Grid(), value_eps);

      // Admission from empty: consumed 0 + demand `value` sums to `value` exactly.
      PrivacyBlock fresh(0, capacity, 0.0);
      EXPECT_EQ(fresh.CanAccept(at_value), within);
      // A block already holding `value`: a zero demand fits iff `value` does, and the
      // block is exhausted iff its one usable order is.
      PrivacyBlock holding =
          PrivacyBlock::Restore(0, capacity, 0.0, 1.0, at_value, /*version=*/1);
      EXPECT_EQ(holding.CanAccept(RdpCurve(Grid())), within);
      EXPECT_EQ(holding.Exhausted(), exhausted);

      // The snapshot validator: a block must hold its consumption within capacity.
      BlockManager manager(Grid(), 10.0, 1e-7);
      manager.AddBlockWithCapacity(capacity, 0.0, /*unlocked=*/true);
      ClusterSnapshot snapshot = CaptureSnapshot(manager, {}, AllocationMetrics(), {});
      snapshot.blocks[0].consumed[i64] = value;
      ASSERT_EQ(ValidateSnapshot(snapshot) == "", within) << ValidateSnapshot(snapshot);
    }
  }
}

TEST(PrivacyBlockDeathTest, CommitRejectedDemandAborts) {
  PrivacyBlock block(0, Grid(), 10.0, 1e-7, 0.0);
  EXPECT_DEATH(block.Commit(FlatDemand(11.0)), "filter");
}

TEST(PrivacyBlockTest, FilterGuaranteePreservedUnderAdaptiveCommits) {
  // Property 6: any sequence of admitted demands keeps at least one order within capacity,
  // so translation at that order certifies the global (eps_g, delta_g) guarantee.
  PrivacyBlock block(0, Grid(), 4.0, 1e-6, 0.0);
  RdpCurve increments = GaussianCurve(Grid(), 6.0);
  int admitted = 0;
  while (block.CanAccept(increments) && admitted < 10000) {
    block.Commit(increments);
    ++admitted;
  }
  EXPECT_GT(admitted, 0);
  bool some_order_within = false;
  for (size_t i = 0; i < Grid()->size(); ++i) {
    if (block.capacity().epsilon(i) > 0.0 &&
        block.consumed().epsilon(i) <= block.capacity().epsilon(i)) {
      some_order_within = true;
    }
  }
  EXPECT_TRUE(some_order_within);
}

}  // namespace
}  // namespace dpack
