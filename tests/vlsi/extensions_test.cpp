/**
 * @file
 * Tests for the Section 6 future-work extensions: sparse crossbars
 * and the full-custom (20 FO4) design point.
 */
#include <gtest/gtest.h>

#include "core/design.h"
#include "sched/machine.h"
#include "vlsi/cost_model.h"

namespace sps::vlsi {
namespace {

TEST(SparseSwitchTest, FullConnectivityIsTheDefaultModel)
{
    CostModel base;
    CostModel sparse1(Params::sparseSwitch(1.0));
    for (int n : {2, 5, 16, 64}) {
        EXPECT_DOUBLE_EQ(base.intraSwitchArea(n),
                         sparse1.intraSwitchArea(n));
        EXPECT_DOUBLE_EQ(base.intraCommEnergyPerBit(n),
                         sparse1.intraCommEnergyPerBit(n));
    }
}

TEST(SparseSwitchTest, SparserIsSmallerAndCheaper)
{
    CostModel full;
    CostModel half(Params::sparseSwitch(0.5));
    CostModel quarter(Params::sparseSwitch(0.25));
    for (int n : {5, 16, 64}) {
        EXPECT_LT(half.intraSwitchArea(n), full.intraSwitchArea(n));
        EXPECT_LT(quarter.intraSwitchArea(n),
                  half.intraSwitchArea(n));
        EXPECT_LT(half.intraCommEnergyPerBit(n),
                  full.intraCommEnergyPerBit(n));
        EXPECT_LE(half.intraDelayFo4(n), full.intraDelayFo4(n));
    }
    MachineSize big{128, 5};
    EXPECT_LT(half.interSwitchArea(big), full.interSwitchArea(big));
    EXPECT_LT(half.interCommEnergyPerBit(big),
              full.interCommEnergyPerBit(big));
}

TEST(SparseSwitchTest, SavingsGrowWithClusterSize)
{
    // The switch is a larger share of big clusters, so sparsity helps
    // more at N=64 than at N=5.
    CostModel full;
    CostModel quarter(Params::sparseSwitch(0.25));
    double save5 = 1.0 - quarter.areaPerAlu({8, 5}) /
                             full.areaPerAlu({8, 5});
    double save64 = 1.0 - quarter.areaPerAlu({8, 64}) /
                              full.areaPerAlu({8, 64});
    EXPECT_GT(save64, save5);
}

TEST(SparseSwitchTest, LowConnectivityAddsForwardingStage)
{
    CostModel half_model(Params::sparseSwitch(0.5));
    CostModel quarter_model(Params::sparseSwitch(0.25));
    sched::MachineModel half({8, 5}, half_model);
    sched::MachineModel quarter({8, 5}, quarter_model);
    EXPECT_EQ(quarter.intraExtraStages(), half.intraExtraStages() + 1);
}

TEST(CustomDesignTest, TwentyFo4ClockKeepsRelativeCosts)
{
    // Section 4.3: "similar results would be seen for relative area
    // per ALU [and] energy overhead per ALU operation" in a
    // full-custom 20 FO4 design (area/energy formulas don't involve
    // the clock).
    CostModel std45(Params::imagine());
    CostModel custom(Params::custom20Fo4());
    for (int c : {8, 128}) {
        for (int n : {2, 5, 16}) {
            MachineSize s{c, n};
            EXPECT_DOUBLE_EQ(std45.areaPerAlu(s),
                             custom.areaPerAlu(s));
            EXPECT_DOUBLE_EQ(std45.energyPerAluOp(s),
                             custom.energyPerAluOp(s));
        }
    }
}

TEST(CustomDesignTest, LatencyInCyclesGrowsAtFasterClock)
{
    // The same FO4 traversal spans more of the shorter cycle.
    CostModel std45(Params::imagine());
    CostModel custom(Params::custom20Fo4());
    EXPECT_GT(custom.intraPipeStages(10), std45.intraPipeStages(10));
    EXPECT_GT(custom.interCommCycles({128, 5}),
              std45.interCommCycles({128, 5}));
}

TEST(CustomDesignTest, ClockFollowsTCyc)
{
    // With the 45nm FO4 delay, a 20 FO4 cycle is 45/20 as fast as a
    // 45 FO4 one, and every ALU's peak rate follows the clock.
    core::StreamProcessorDesign std45({128, 10});
    core::StreamProcessorDesign custom({128, 10}, Params::custom20Fo4());
    EXPECT_NEAR(custom.peakGops() / std45.peakGops(), 45.0 / 20.0, 1e-12);
}

} // namespace
} // namespace sps::vlsi
