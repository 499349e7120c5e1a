#include "core/design.h"

#include <gtest/gtest.h>

#include "workloads/suite.h"

namespace sps::core {
namespace {

TEST(DesignTest, CostsAccessibleThroughFacade)
{
    StreamProcessorDesign d({8, 5});
    EXPECT_GT(d.area().total(), 0.0);
    EXPECT_GT(d.energy().total(), 0.0);
    EXPECT_GT(d.areaPerAlu(), 0.0);
    EXPECT_GT(d.energyPerAluOp(), 0.0);
    EXPECT_GT(d.delay().interFo4, d.delay().intraFo4);
}

TEST(DesignTest, PeakGopsIsAlusTimesClock)
{
    StreamProcessorDesign d({128, 10});
    EXPECT_NEAR(d.peakGops(), 1280.0 * d.clockGHz(), 1e-6);
}

TEST(DesignTest, AbsoluteAreaReasonableAt45nm)
{
    // A 40-ALU stream processor in 45nm should be tens of mm^2 at
    // most (Imagine was ~260 mm^2 in 0.18um for a similar machine).
    StreamProcessorDesign d({8, 5});
    EXPECT_GT(d.areaMm2(), 1.0);
    EXPECT_LT(d.areaMm2(), 100.0);
}

TEST(DesignTest, PowerUnder10WattsFor1280Alus)
{
    // Section 6's headline: 1280 ALUs in 45nm dissipate < 10 W.
    StreamProcessorDesign d({128, 10});
    EXPECT_LT(d.powerWatts(), 10.0);
    EXPECT_GT(d.powerWatts(), 0.5);
}

TEST(DesignTest, PeakOverTeraopFor1280Alus)
{
    // "stream processors with 1280 ALUs will be able to provide a
    // peak performance of over 1 TFLOPs" (with subword ops a 16-bit
    // kernel doubles this).
    StreamProcessorDesign d({128, 10});
    EXPECT_GE(d.peakGops() * 2.0, 1000.0);
}

TEST(DesignTest, KernelThroughputScalesWithClusters)
{
    StreamProcessorDesign d8({8, 5});
    StreamProcessorDesign d64({64, 5});
    double t8 = d8.kernelOpsPerCycle(workloads::noiseKernel());
    double t64 = d64.kernelOpsPerCycle(workloads::noiseKernel());
    EXPECT_NEAR(t64 / t8, 8.0, 0.01);
}

TEST(DesignTest, SimulateRunsViaFacade)
{
    StreamProcessorDesign d({8, 5});
    sim::StreamProcessor proc = d.makeProcessor();
    stream::StreamProgram prog =
        workloads::buildConvApp(d.size(), proc.srf());
    sim::SimResult r = d.simulate(prog);
    EXPECT_GT(r.cycles, 0);
}

} // namespace
} // namespace sps::core
