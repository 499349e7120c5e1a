/**
 * @file
 * Unit tests for the interval arithmetic and the stall-attribution
 * waterfall of analysis::attributeBottleneck.
 */
#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bottleneck.h"
#include "common/prng.h"
#include "sim/processor.h"
#include "workloads/suite.h"

namespace sps::analysis {
namespace {

using Ivs = std::vector<CycleInterval>;

/**
 * attributeBottleneck as it was before it merged the wait windows
 * while reading the timeline: three per-op window vectors, each merged
 * once. Kept verbatim as the oracle the streaming form must match.
 */
BottleneckReport
attributeBottleneckOracle(const std::vector<sim::OpInterval> &timeline,
                          const std::vector<CycleInterval> &memBusy,
                          const std::vector<CycleInterval> &ucBusy,
                          int64_t cycles)
{
    BottleneckReport r;
    r.valid = true;

    // Busy attribution: microcontroller-busy cycles are kernel-bound
    // whether or not memory overlapped them; memory-only cycles are
    // memory-bound. This matches the SimCounters cycle breakdown
    // (kernelBound == kernelOnly + overlap, memoryBound == memOnly).
    // Memory-only is the busy union less the microcontroller's share:
    // |mem \ uc| = |mem u uc| - |uc|.
    std::vector<CycleInterval> busy = unionIntervals(memBusy, ucBusy);
    r.kernelBoundCycles = intervalLength(ucBusy);
    r.memoryBoundCycles = intervalLength(busy) - r.kernelBoundCycles;

    // Quiet cycles: the complement of all busy intervals in [0, cycles).
    std::vector<CycleInterval> idle =
        subtractIntervals({{0, cycles}}, busy);

    // Per-op wait windows from the issue metadata.
    std::vector<CycleInterval> sb, host, dep;
    sb.reserve(timeline.size());
    host.reserve(timeline.size());
    dep.reserve(timeline.size());
    for (const sim::OpInterval &op : timeline) {
        if (op.issueStart > op.sbWaitStart)
            sb.push_back({op.sbWaitStart, op.issueStart});
        if (op.issueEnd > op.issueStart)
            host.push_back({op.issueStart, op.issueEnd});
        if (op.readyCycle > op.issueEnd)
            dep.push_back({op.issueEnd, op.readyCycle});
    }

    // Attribute quiet cycles by priority; each window class claims its
    // intersection with the still-unattributed idle set.
    auto claim = [&idle](std::vector<CycleInterval> windows) {
        std::vector<CycleInterval> w =
            mergeIntervals(std::move(windows));
        std::vector<CycleInterval> got = intersectIntervals(idle, w);
        idle = subtractIntervals(idle, got);
        return intervalLength(got);
    };
    r.scoreboardCycles = claim(std::move(sb));
    r.dependenceCycles = claim(std::move(dep));
    r.hostIssueCycles = claim(std::move(host));
    r.idleCycles = intervalLength(idle);
    return r;
}

/** Every field of a report, in its field table's order. */
std::vector<int64_t>
fieldsOf(const BottleneckReport &r)
{
    std::vector<int64_t> v;
    forEachField(r, [&v](const char *, const auto &x) {
        v.push_back(static_cast<int64_t>(x));
    });
    return v;
}

/** A random interval list in start order, with gaps and touching,
 *  nested and empty intervals; unless `ordered`, a few of its
 *  intervals then trade places. */
Ivs
randomIntervals(Prng &prng, bool ordered)
{
    Ivs v;
    int64_t t = 0;
    for (int n = static_cast<int>(prng.below(40)); n > 0; --n) {
        switch (prng.below(6)) {
        case 0: // empty
            v.push_back({t, t});
            break;
        case 1: // touching the previous one
            if (!v.empty())
                t = v.back().end;
            v.push_back({t, t + 1 + prng.below(5)});
            break;
        case 2: // nested in the previous one
            if (!v.empty() && v.back().end - v.back().start > 2) {
                v.push_back({v.back().start + 1, v.back().end - 1});
                break;
            }
            v.push_back({t, t + 1 + prng.below(5)});
            break;
        default: // a gap, then an interval
            t += prng.below(8);
            v.push_back({t, t + 1 + prng.below(12)});
        }
        t = std::max(t, v.back().start) + prng.below(3);
    }
    if (!ordered && v.size() > 1) {
        for (int k = 1 + static_cast<int>(prng.below(4)); k > 0; --k) {
            size_t i = prng.below(static_cast<uint32_t>(v.size()));
            size_t j = prng.below(static_cast<uint32_t>(v.size()));
            std::swap(v[i], v[j]);
        }
    }
    return v;
}

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

TEST(IntervalTest, UnionBuilderMatchesMerge)
{
    // The builder must give exactly mergeIntervals' set for streams in
    // start order (where it never falls back) and out of it (where it
    // merges once at the end), and start over after each take().
    Prng prng(0x1e7e'4a15);
    IntervalUnion u;
    for (int k = 0; k < 2000; ++k) {
        const Ivs v = randomIntervals(prng, k % 2 == 0);
        for (const CycleInterval &iv : v)
            u.add(iv);
        EXPECT_TRUE(same(u.take(), mergeIntervals(v))) << "case " << k;
    }
    EXPECT_TRUE(u.take().empty());
    // An interval that starts before the last one, inside an earlier
    // gap, joins both of its neighbours.
    for (CycleInterval iv : Ivs{{0, 2}, {4, 6}, {8, 9}, {2, 4}, {6, 8}})
        u.add(iv);
    EXPECT_TRUE(same(u.take(), {{0, 9}}));
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

TEST(BottleneckTest, StreamingWindowsMatchOracleOnApps)
{
    // Every app at three cluster counts and four cluster widths: the
    // report from the run's own timeline matches the oracle's field
    // for field. The busy sets are rebuilt from the timeline: kernel
    // intervals for the microcontroller, the merged transfers for the
    // memory pins.
    for (const workloads::AppEntry &app : workloads::appSuite()) {
        for (int c : {8, 16, 128}) {
            for (int n : {2, 5, 10, 14}) {
                sim::SimConfig cfg;
                cfg.size = vlsi::MachineSize{c, n};
                sim::StreamProcessor proc(cfg);
                const sim::SimResult res =
                    proc.run(app.build(cfg.size, proc.srf()));
                Ivs mem, uc;
                for (const sim::OpInterval &iv : res.timeline)
                    (iv.kind == sim::OpClass::Kernel ? uc : mem)
                        .push_back({iv.start, iv.end});
                mem = mergeIntervals(std::move(mem));
                uc = mergeIntervals(std::move(uc));
                const std::string where = app.name + " C=" +
                                          std::to_string(c) + " N=" +
                                          std::to_string(n);
                EXPECT_EQ(fieldsOf(attributeBottleneck(res.timeline, mem,
                                                       uc, res.cycles)),
                          fieldsOf(attributeBottleneckOracle(
                              res.timeline, mem, uc, res.cycles)))
                    << where;
                EXPECT_EQ(res.bottleneck.totalCycles(), res.cycles)
                    << where;
            }
        }
    }
}

TEST(BottleneckTest, StreamingWindowsMatchOracleOutOfIssueOrder)
{
    // Random timelines whose windows arrive out of issue order (so
    // every window union falls back to its final merge), with empty
    // windows and random busy sets.
    Prng prng(0xb0771e);
    for (int k = 0; k < 1000; ++k) {
        std::vector<sim::OpInterval> timeline;
        int64_t cycles = 0;
        // A window is empty a third of the time.
        auto wait = [&prng](uint32_t most) -> int64_t {
            return prng.below(3) == 0 ? 0 : prng.below(most);
        };
        for (int n = static_cast<int>(prng.below(30)); n > 0; --n) {
            sim::OpInterval op;
            op.sbWaitStart = prng.below(400);
            op.issueStart = op.sbWaitStart + wait(20);
            op.issueEnd = op.issueStart + wait(20);
            op.readyCycle = op.issueEnd + wait(40);
            cycles = std::max(cycles, op.readyCycle);
            timeline.push_back(op);
        }
        const Ivs mem = mergeIntervals(randomIntervals(prng, false));
        const Ivs uc = mergeIntervals(randomIntervals(prng, false));
        for (const Ivs *v : {&mem, &uc})
            if (!v->empty())
                cycles = std::max(cycles, v->back().end);
        cycles += prng.below(50);
        EXPECT_EQ(fieldsOf(attributeBottleneck(timeline, mem, uc, cycles)),
                  fieldsOf(attributeBottleneckOracle(timeline, mem, uc,
                                                     cycles)))
            << "case " << k;
    }
}

} // namespace
} // namespace sps::analysis
