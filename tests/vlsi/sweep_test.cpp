#include "vlsi/sweep.h"

#include <gtest/gtest.h>

namespace sps::vlsi {
namespace {

TEST(SweepTest, IntraclusterSweepNormalizesAtReference)
{
    CostModel m;
    SweepSeries s = intraclusterSweep(m, 8, {2, 5, 10}, 5);
    auto area = s.normalizedAreaPerAlu();
    ASSERT_EQ(area.size(), 3u);
    EXPECT_DOUBLE_EQ(area[1], 1.0);
    auto energy = s.normalizedEnergyPerOp();
    EXPECT_DOUBLE_EQ(energy[1], 1.0);
}

TEST(SweepTest, InterclusterSweepNormalizesAtReference)
{
    CostModel m;
    SweepSeries s = interclusterSweep(m, 5, {8, 32, 128}, 8);
    auto area = s.normalizedAreaPerAlu();
    EXPECT_DOUBLE_EQ(area[0], 1.0);
}

TEST(SweepTest, SweepPointsCarryComponentDetail)
{
    CostModel m;
    SweepSeries s = intraclusterSweep(m, 8, {5}, 5);
    const SweepPoint &pt = s.points[0];
    EXPECT_EQ(pt.size.clusters, 8);
    EXPECT_EQ(pt.size.alusPerCluster, 5);
    EXPECT_GT(pt.area.total(), 0.0);
    EXPECT_GT(pt.energy.total(), 0.0);
    EXPECT_GT(pt.delay.interFo4, pt.delay.intraFo4);
}

TEST(SweepTest, DefaultRangesMatchPaperAxes)
{
    auto intra = defaultIntraRange();
    EXPECT_EQ(intra.front(), 1);
    EXPECT_EQ(intra.back(), 128);
    auto inter = defaultInterRange();
    EXPECT_EQ(inter.front(), 8);
    EXPECT_EQ(inter.back(), 256);
}

TEST(SweepDeathTest, MissingReferencePanics)
{
    CostModel m;
    EXPECT_DEATH(intraclusterSweep(m, 8, {2, 10}, 5), "reference");
}

} // namespace
} // namespace sps::vlsi
