#include "src/common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dpack {
namespace {

TEST(RunningStatTest, EmptyDefaults) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat stat;
  stat.Add(5.0);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.min(), 5.0);
  EXPECT_DOUBLE_EQ(stat.max(), 5.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Add(x);
  }
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, VariationCoefficient) {
  RunningStat stat;
  stat.Add(1.0);
  stat.Add(3.0);
  // mean 2, sample stddev sqrt(2).
  EXPECT_NEAR(stat.variation_coefficient(), std::sqrt(2.0) / 2.0, 1e-12);
}

TEST(SampleSetTest, QuantilesInterpolate) {
  SampleSet set;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    set.Add(x);
  }
  EXPECT_DOUBLE_EQ(set.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(set.median(), 2.5);
}

TEST(SampleSetTest, CdfAt) {
  SampleSet set;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    set.Add(x);
  }
  EXPECT_DOUBLE_EQ(set.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(set.CdfAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(set.CdfAt(10.0), 1.0);
}

TEST(SampleSetTest, AddAfterQueryResorts) {
  SampleSet set;
  set.Add(3.0);
  EXPECT_DOUBLE_EQ(set.median(), 3.0);
  set.Add(1.0);
  set.Add(2.0);
  EXPECT_DOUBLE_EQ(set.median(), 2.0);
}

}  // namespace
}  // namespace dpack
