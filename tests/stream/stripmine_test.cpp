#include "stream/stripmine.h"

#include <gtest/gtest.h>

namespace sps::stream {
namespace {

srf::SrfModel
srfFor(int c, int n)
{
    return srf::SrfModel::forMachine({c, n},
                                     vlsi::Params::imagine());
}

TEST(StripmineTest, SingleBatchWhenDatasetFits)
{
    srf::SrfModel srf = srfFor(128, 10); // 1.4M words
    BatchPlan plan = planBatches(10000, 20, srf, 128);
    EXPECT_EQ(plan.batches, 1);
    EXPECT_EQ(plan.recordsPerBatch, 10000);
}

TEST(StripmineTest, SplitsWhenWorkingSetExceedsSrf)
{
    srf::SrfModel srf = srfFor(8, 5); // 44000 words
    BatchPlan plan = planBatches(24576, 40, srf, 8);
    EXPECT_GT(plan.batches, 1);
    // Each batch's working set respects the budget.
    EXPECT_LE(plan.recordsPerBatch * 40,
              static_cast<int64_t>(0.9 * srf.capacityWords));
}

TEST(StripmineTest, BatchesCoverAllRecords)
{
    srf::SrfModel srf = srfFor(8, 5);
    BatchPlan plan = planBatches(24576, 40, srf, 8);
    EXPECT_GE(plan.recordsPerBatch * plan.batches, 24576);
    EXPECT_LT(plan.recordsPerBatch * (plan.batches - 1), 24576);
}

TEST(StripmineTest, BatchAlignedToClusterCount)
{
    srf::SrfModel srf = srfFor(8, 5);
    for (int align : {8, 32, 128}) {
        BatchPlan plan = planBatches(100000, 24, srf, align);
        EXPECT_EQ(plan.recordsPerBatch % align, 0) << align;
    }
}

TEST(StripmineTest, TinySrfStillMakesProgress)
{
    srf::SrfModel srf = srfFor(1, 1); // 1100 words
    BatchPlan plan = planBatches(1000, 5000, srf, 8);
    EXPECT_GE(plan.recordsPerBatch, 8);
    EXPECT_GE(plan.batches, 1);
}

TEST(StripmineTest, EmptyDataset)
{
    srf::SrfModel srf = srfFor(8, 5);
    BatchPlan plan = planBatches(0, 10, srf, 8);
    EXPECT_EQ(plan.batches, 0);
}

TEST(StripmineTest, LargerMachinesUseFewerBatches)
{
    BatchPlan small = planBatches(100000, 40, srfFor(8, 5), 8);
    BatchPlan big = planBatches(100000, 40, srfFor(64, 5), 64);
    EXPECT_LT(big.batches, small.batches);
}

} // namespace
} // namespace sps::stream
