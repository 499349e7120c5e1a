#include "srf/allocator.h"

#include <gtest/gtest.h>

namespace sps::srf {
namespace {

TEST(AllocatorTest, AllocateAndRelease)
{
    Allocator a(100);
    EXPECT_TRUE(a.allocate(1, 60));
    EXPECT_EQ(a.used(), 60);
    EXPECT_TRUE(a.resident(1));
    a.release(1);
    EXPECT_EQ(a.used(), 0);
    EXPECT_FALSE(a.resident(1));
}

TEST(AllocatorTest, RejectsOverCapacityWithoutSideEffects)
{
    Allocator a(100);
    EXPECT_TRUE(a.allocate(1, 80));
    EXPECT_FALSE(a.allocate(2, 30));
    EXPECT_EQ(a.used(), 80);
    EXPECT_FALSE(a.resident(2));
}

TEST(AllocatorTest, FitsChecksRemainingSpace)
{
    Allocator a(100);
    a.allocate(1, 70);
    EXPECT_TRUE(a.fits(30));
    EXPECT_FALSE(a.fits(31));
}

TEST(AllocatorTest, HighWaterTracksPeak)
{
    Allocator a(100);
    a.allocate(1, 40);
    a.allocate(2, 50);
    a.release(1);
    a.allocate(3, 10);
    EXPECT_EQ(a.highWater(), 90);
}

TEST(AllocatorTest, ForceAllocateExceedsCapacity)
{
    Allocator a(100);
    a.allocate(1, 90);
    a.forceAllocate(2, 50);
    EXPECT_EQ(a.used(), 140);
    EXPECT_GT(a.highWater(), a.capacity());
    EXPECT_TRUE(a.resident(2));
}

TEST(AllocatorTest, ReleaseUnknownStreamIsNoop)
{
    Allocator a(100);
    a.release(42);
    EXPECT_EQ(a.used(), 0);
}

TEST(AllocatorTest, ZeroSizeAllocationAllowed)
{
    Allocator a(10);
    EXPECT_TRUE(a.allocate(1, 0));
    EXPECT_TRUE(a.resident(1));
}

TEST(AllocatorTest, ZeroWordStreamIsResidentUntilReleased)
{
    // Zero words held and no space held stay distinct.
    Allocator a(10);
    a.forceAllocate(3, 0);
    EXPECT_TRUE(a.resident(3));
    EXPECT_TRUE(a.release(3));
    EXPECT_FALSE(a.resident(3));
    EXPECT_FALSE(a.release(3));
    EXPECT_TRUE(a.allocate(3, 0));
    EXPECT_TRUE(a.resident(3));
    EXPECT_EQ(a.used(), 0);
}

TEST(AllocatorTest, IdsNeverAllocatedAreNotResident)
{
    Allocator a(100);
    EXPECT_FALSE(a.resident(0));
    EXPECT_FALSE(a.release(0));
    EXPECT_FALSE(a.resident(100000));
    EXPECT_FALSE(a.release(100000));
    EXPECT_TRUE(a.allocate(2, 10));
    // Below, between and far above the allocated id.
    for (int64_t id : {0, 1, 3, 100000}) {
        EXPECT_FALSE(a.resident(id)) << id;
        EXPECT_FALSE(a.release(id)) << id;
    }
    EXPECT_EQ(a.used(), 10);
    EXPECT_EQ(a.highWater(), 10);
    EXPECT_TRUE(a.resident(2));
    EXPECT_TRUE(a.release(2));
    EXPECT_EQ(a.used(), 0);
}

TEST(AllocatorTest, ReleasedStreamCanBeAllocatedAgain)
{
    Allocator a(100);
    EXPECT_TRUE(a.allocate(4, 60));
    EXPECT_TRUE(a.release(4));
    EXPECT_TRUE(a.allocate(4, 70));
    EXPECT_EQ(a.used(), 70);
    EXPECT_EQ(a.highWater(), 70);
}

TEST(AllocatorDeathTest, DoubleAllocatePanics)
{
    Allocator a(100);
    a.allocate(1, 10);
    EXPECT_DEATH(a.allocate(1, 10), "already resident");
}

TEST(AllocatorDeathTest, DoubleForceAllocatePanics)
{
    Allocator a(100);
    a.allocate(1, 0);
    EXPECT_DEATH(a.forceAllocate(1, 10), "already resident");
}

TEST(AllocatorDeathTest, NegativeIdPanics)
{
    Allocator a(100);
    EXPECT_DEATH(a.allocate(-1, 10), "negative stream id");
    EXPECT_DEATH(a.forceAllocate(-1, 10), "negative stream id");
    EXPECT_DEATH(a.resident(-1), "negative stream id");
    EXPECT_DEATH(a.release(-1), "negative stream id");
}

} // namespace
} // namespace sps::srf
