#include "mem/access_sched.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/prng.h"

namespace sps::mem {
namespace {

/** Requests are channel-local word addresses. */
using Requests = std::vector<int64_t>;

Requests
sequential(int64_t n)
{
    Requests reqs;
    for (int64_t i = 0; i < n; ++i)
        reqs.push_back(i);
    return reqs;
}

/** What one drained request list did to the channel. */
struct DrainStats
{
    /** Total busy cycles on the channel's pins. */
    int64_t busyCycles = 0;
    /** Sum over picks of how many older requests each bypassed. */
    int64_t reorderSum = 0;
    /** Largest number of older requests one pick bypassed. */
    int64_t reorderMax = 0;
    /** Most times any single request was bypassed before service. */
    int64_t maxBypassed = 0;
};

/** Feed `requests` through one AccessWindow in arrival order, keeping
 *  it full, until every request has been serviced. */
DrainStats
drain(DramChannel &chan, const Requests &requests,
      int window = kSchedWindow, int max_bypass = kSchedMaxBypass)
{
    DrainStats stats;
    AccessWindow win(window, max_bypass);
    size_t next = 0;
    while (next < requests.size() || !win.empty()) {
        while (win.wantsMore() && next < requests.size())
            win.push(chan.decode(requests[next++]), 0);
        WindowService s = win.serviceNext(chan);
        stats.busyCycles += s.cycles;
        stats.reorderSum += s.pickIndex;
        stats.reorderMax = std::max(stats.reorderMax, s.pickIndex);
        stats.maxBypassed = std::max(stats.maxBypassed, s.bypassed);
    }
    return stats;
}

TEST(AccessSchedTest, SequentialStreamNearPeak)
{
    DramChannel chan;
    int64_t n = 2048;
    int64_t cycles = drain(chan, sequential(n)).busyCycles;
    // One activate per row plus tCol per word: overhead under 10%.
    EXPECT_LT(cycles, n * chan.tCol() * 11 / 10);
}

TEST(AccessSchedTest, ReorderingBeatsFifoOnInterleavedRows)
{
    // Requests alternating between two rows of the same bank: FR-FCFS
    // batches row hits, FIFO order would miss every time.
    DramTiming t;
    t.banks = 1;
    int64_t row_stride = t.rowWords;
    Requests reqs;
    for (int i = 0; i < 16; ++i) {
        reqs.push_back(i);
        reqs.push_back(row_stride + i);
    }
    DramChannel fr_chan(t);
    int64_t fr_cycles = drain(fr_chan, reqs, /*window=*/16).busyCycles;

    DramChannel fifo_chan(t);
    int64_t fifo_cycles =
        drain(fifo_chan, reqs, /*window=*/1).busyCycles;

    EXPECT_LT(fr_cycles, fifo_cycles / 2);
}

TEST(AccessSchedTest, EmptyRequestList)
{
    DramChannel chan;
    EXPECT_EQ(drain(chan, {}).busyCycles, 0);
}

TEST(AccessSchedTest, AgeCapBoundsStarvationUnderRowHitFlood)
{
    // One old row miss behind a flood of row hits: row-hit-first alone
    // would bypass it until the flood drains, the age cap forces it
    // through after at most maxBypass bypasses.
    DramTiming t;
    t.banks = 1;
    Requests reqs;
    reqs.push_back(0); // opens row 0
    reqs.push_back(t.rowWords * 4LL); // the victim
    for (int i = 1; i <= 64; ++i)
        reqs.push_back(i); // row-0 hits

    DramChannel capped_chan(t);
    DrainStats capped = drain(capped_chan, reqs, 16, /*max_bypass=*/4);
    EXPECT_LE(capped.maxBypassed, 4);

    DramChannel uncapped_chan(t);
    DrainStats uncapped =
        drain(uncapped_chan, reqs, 16, /*max_bypass=*/100000);
    EXPECT_GT(uncapped.maxBypassed, 40);
    // The cap trades some locality for the latency bound.
    EXPECT_GE(capped.busyCycles, uncapped.busyCycles);
}

TEST(AccessSchedTest, ReorderStatsTrackPickDistance)
{
    DramTiming t;
    t.banks = 1;
    Requests reqs;
    for (int i = 0; i < 16; ++i) {
        reqs.push_back(i);
        reqs.push_back(t.rowWords + i);
    }
    // A window of one is FIFO: nothing is ever bypassed.
    DramChannel fifo_chan(t);
    DrainStats fifo = drain(fifo_chan, reqs, /*window=*/1);
    EXPECT_EQ(fifo.reorderSum, 0);
    EXPECT_EQ(fifo.reorderMax, 0);
    EXPECT_EQ(fifo.maxBypassed, 0);
    // FR-FCFS on alternating rows reorders, within the window bound.
    DramChannel fr_chan(t);
    DrainStats fr = drain(fr_chan, reqs, /*window=*/16);
    EXPECT_GT(fr.reorderSum, 0);
    EXPECT_GE(fr.reorderMax, 1);
    EXPECT_LT(fr.reorderMax, 16);
    EXPECT_GE(fr.reorderSum, fr.reorderMax);
}

TEST(AccessSchedTest, BusyCyclesInvariantUnderWindowPermutations)
{
    // With every request visible at once (n <= window) and no age cap
    // in play, FR-FCFS drains each row completely before switching:
    // pin time depends only on the request set, not its order.
    DramTiming t;
    t.banks = 1;
    Requests base;
    for (int64_t row = 0; row < 4; ++row)
        for (int64_t i = 0; i < 4; ++i)
            base.push_back(row * t.rowWords + i);

    auto busy_of = [&](const Requests &reqs) {
        DramChannel chan(t);
        return drain(chan, reqs, /*window=*/16, /*max_bypass=*/1 << 20)
            .busyCycles;
    };
    int64_t want = busy_of(base);

    Requests reversed(base.rbegin(), base.rend());
    EXPECT_EQ(busy_of(reversed), want);

    Prng prng(42);
    Requests shuffled = base;
    for (int trial = 0; trial < 8; ++trial) {
        for (size_t i = shuffled.size() - 1; i > 0; --i)
            std::swap(shuffled[i],
                      shuffled[prng.below(static_cast<uint32_t>(i + 1))]);
        EXPECT_EQ(busy_of(shuffled), want);
    }
}

TEST(AccessSchedTest, StridedAccessSlowerThanDense)
{
    DramChannel dense_chan, strided_chan;
    int64_t n = 1024;
    Requests far;
    for (int64_t i = 0; i < n; ++i)
        far.push_back(i * dense_chan.timing().rowWords *
                      dense_chan.timing().banks);
    EXPECT_GT(drain(strided_chan, far).busyCycles,
              drain(dense_chan, sequential(n)).busyCycles);
}

} // namespace
} // namespace sps::mem
