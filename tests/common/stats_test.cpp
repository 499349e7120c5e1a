#include "common/stats.h"

#include <gtest/gtest.h>

namespace sps {
namespace {

TEST(StatsTest, HarmonicMeanOfEqualValuesIsThatValue)
{
    EXPECT_DOUBLE_EQ(harmonicMean({4.0, 4.0, 4.0}), 4.0);
}

TEST(StatsTest, HarmonicMeanKnownValue)
{
    // HM(1, 2) = 2 / (1 + 1/2) = 4/3.
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
}

TEST(StatsTest, HarmonicMeanDominatedBySmallest)
{
    double hm = harmonicMean({0.01, 100.0, 100.0});
    EXPECT_LT(hm, 0.04);
}

TEST(StatsTest, HarmonicLeGeometricLeArithmetic)
{
    std::vector<double> v{1.0, 3.0, 9.0, 27.0};
    double h = harmonicMean(v);
    double g = 9.0; // (1 * 3 * 9 * 27)^(1/4)
    double a = arithmeticMean(v);
    EXPECT_LT(h, g);
    EXPECT_LT(g, a);
}

TEST(StatsTest, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsDeathTest, HarmonicMeanRejectsNonPositive)
{
    EXPECT_DEATH(harmonicMean({1.0, 0.0}), "positive");
}

TEST(StatsDeathTest, EmptySeriesRejected)
{
    EXPECT_DEATH(harmonicMean({}), "empty");
}

} // namespace
} // namespace sps
