/**
 * @file
 * Unit tests for the interval arithmetic and the stall-attribution
 * waterfall of analysis::attributeBottleneck.
 */
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bottleneck.h"

namespace sps::analysis {
namespace {

using Ivs = std::vector<CycleInterval>;

bool
same(const Ivs &a, const Ivs &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].start != b[i].start || a[i].end != b[i].end)
            return false;
    return true;
}

TEST(IntervalTest, MergeSortsCoalescesAndDropsEmpty)
{
    Ivs merged = mergeIntervals({{10, 20}, {0, 5}, {15, 30},
                                 {40, 40}, {30, 35}});
    EXPECT_TRUE(same(merged, {{0, 5}, {10, 35}}));
    EXPECT_EQ(intervalLength(merged), 5 + 25);
    EXPECT_TRUE(mergeIntervals({}).empty());
}

TEST(IntervalTest, SortedAndShuffledInputsMergeAlike)
{
    // Touching, nested, duplicate-start and zero-length intervals, in
    // start order.
    const Ivs sorted = {{0, 4},   {0, 2},   {4, 9},   {5, 6},
                        {5, 5},   {12, 12}, {12, 20}, {12, 15},
                        {20, 22}, {30, 31}, {40, 40}};
    const Ivs expected = {{0, 9}, {12, 22}, {30, 31}};
    EXPECT_TRUE(same(mergeIntervals(sorted), expected));
    Ivs v = sorted;
    std::reverse(v.begin(), v.end());
    EXPECT_TRUE(same(mergeIntervals(v), expected));
    std::mt19937 rng(7);
    for (int k = 0; k < 100; ++k) {
        std::shuffle(v.begin(), v.end(), rng);
        EXPECT_TRUE(same(mergeIntervals(v), expected)) << "shuffle " << k;
    }
}

TEST(IntervalTest, IntersectAndSubtract)
{
    Ivs a = {{0, 10}, {20, 30}};
    Ivs b = {{5, 25}};
    EXPECT_TRUE(same(intersectIntervals(a, b), {{5, 10}, {20, 25}}));
    EXPECT_TRUE(same(subtractIntervals(a, b), {{0, 5}, {25, 30}}));
    EXPECT_TRUE(same(subtractIntervals(a, {}), a));
    EXPECT_TRUE(intersectIntervals(a, {}).empty());
    // Subtracting a covering set leaves nothing.
    EXPECT_TRUE(subtractIntervals(a, {{0, 30}}).empty());
}

TEST(IntervalTest, UnionMatchesMergeOfConcatenation)
{
    // Two disjoint sorted sets that overlap, nest and touch each
    // other; the linear merge must give what merging their
    // concatenation gives.
    const Ivs a = {{0, 4}, {6, 10}, {20, 25}, {30, 31}};
    const Ivs b = {{4, 5}, {7, 8}, {9, 21}, {40, 50}};
    EXPECT_TRUE(same(unionIntervals(a, b),
                     {{0, 5}, {6, 25}, {30, 31}, {40, 50}}));
    EXPECT_TRUE(same(unionIntervals(a, {}), a));
    EXPECT_TRUE(same(unionIntervals({}, b), b));
    EXPECT_TRUE(unionIntervals({}, {}).empty());
    std::mt19937 rng(11);
    for (int k = 0; k < 200; ++k) {
        Ivs x, y;
        for (Ivs *v : {&x, &y}) {
            int64_t t = 0;
            for (int n = static_cast<int>(rng() % 8); n > 0; --n) {
                t += static_cast<int64_t>(rng() % 6);
                int64_t len = 1 + static_cast<int64_t>(rng() % 6);
                v->push_back({t, t + len});
                t += len + 1;
            }
        }
        Ivs cat = x;
        cat.insert(cat.end(), y.begin(), y.end());
        EXPECT_TRUE(same(unionIntervals(x, y), mergeIntervals(cat)))
            << "case " << k;
    }
}

TEST(BottleneckTest, AttributesEveryCycleExactlyOnce)
{
    // A 100-cycle run: uc busy [10,40), memory busy [30,60).
    // One op waited on the scoreboard [0,5), issued [5,10), and its
    // dependences resolved immediately (ready == issueEnd).
    sim::OpInterval op;
    op.sbWaitStart = 0;
    op.issueStart = 5;
    op.issueEnd = 10;
    op.readyCycle = 10;
    BottleneckReport r = attributeBottleneck(
        {op}, /*memBusy=*/{{30, 60}}, /*ucBusy=*/{{10, 40}}, 100);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.kernelBoundCycles, 30);  // all of [10,40)
    EXPECT_EQ(r.memoryBoundCycles, 20);  // [40,60) only
    EXPECT_EQ(r.scoreboardCycles, 5);    // [0,5)
    EXPECT_EQ(r.hostIssueCycles, 5);     // [5,10)
    EXPECT_EQ(r.dependenceCycles, 0);
    EXPECT_EQ(r.idleCycles, 40);         // [60,100)
    EXPECT_EQ(r.totalCycles(), 100);
}

TEST(BottleneckTest, DependenceWindowClaimsTrailingLatency)
{
    // Memory pins quiet after cycle 20, but the next kernel's input
    // load completes at 50: [20,50) is a dependence stall, then the
    // kernel runs [50,80).
    sim::OpInterval op;
    op.sbWaitStart = 10;
    op.issueStart = 10;
    op.issueEnd = 20;
    op.readyCycle = 50;
    BottleneckReport r = attributeBottleneck(
        {op}, /*memBusy=*/{{0, 20}}, /*ucBusy=*/{{50, 80}}, 80);
    EXPECT_EQ(r.memoryBoundCycles, 20);
    EXPECT_EQ(r.kernelBoundCycles, 30);
    EXPECT_EQ(r.dependenceCycles, 30);  // [20,50)
    EXPECT_EQ(r.scoreboardCycles, 0);
    EXPECT_EQ(r.hostIssueCycles, 0);    // hidden under memory busy
    EXPECT_EQ(r.idleCycles, 0);
    EXPECT_EQ(r.totalCycles(), 80);
}

TEST(BottleneckTest, PriorityOrderScoreboardBeatsDependence)
{
    // Two ops whose scoreboard and dependence windows overlap over
    // the same quiet region [0,30): the scoreboard claims it.
    sim::OpInterval a;
    a.sbWaitStart = 0;   // scoreboard window [0,30)
    a.issueStart = 30;
    a.issueEnd = 30;
    a.readyCycle = 30;
    sim::OpInterval b;
    b.sbWaitStart = 10;  // no scoreboard wait...
    b.issueStart = 10;
    b.issueEnd = 10;
    b.readyCycle = 30;   // ...but a dependence window [10,30)
    BottleneckReport r = attributeBottleneck(
        {a, b}, /*memBusy=*/{}, /*ucBusy=*/{{30, 40}}, 40);
    EXPECT_EQ(r.scoreboardCycles, 30);
    EXPECT_EQ(r.dependenceCycles, 0);
    EXPECT_EQ(r.kernelBoundCycles, 10);
    EXPECT_EQ(r.totalCycles(), 40);
}

TEST(BottleneckTest, LimitingResourceNamesLargestCategory)
{
    BottleneckReport r;
    r.valid = true;
    r.kernelBoundCycles = 10;
    r.memoryBoundCycles = 60;
    r.idleCycles = 30;
    EXPECT_STREQ(r.limitingResource(),
                 "DRAM bandwidth (memory-bound)");
    EXPECT_DOUBLE_EQ(r.fraction(r.memoryBoundCycles), 0.6);
    r.kernelBoundCycles = 60;
    // Ties break toward the earlier waterfall category.
    EXPECT_STREQ(r.limitingResource(),
                 "cluster ALUs (kernel-bound)");
}

TEST(BottleneckTest, EmptyRunIsAllZero)
{
    BottleneckReport r = attributeBottleneck({}, {}, {}, 0);
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.totalCycles(), 0);
    EXPECT_STREQ(r.limitingResource(),
                 "cluster ALUs (kernel-bound)");
}

} // namespace
} // namespace sps::analysis
