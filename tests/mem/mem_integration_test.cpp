/**
 * @file
 * Cross-checks of the memory stack against the configurations the
 * evaluation depends on, plus failure-injection-style edge cases.
 */
#include <gtest/gtest.h>

#include "mem/stream_mem.h"

namespace sps::mem {
namespace {

TEST(MemIntegrationTest, ImageLoadTimeMatchesHandArithmetic)
{
    // A packed 512x384 16-bit image is 98304 words; at 4 words/cycle
    // peak the transfer floor is ~24.6K cycles.
    StreamMemSystem sys;
    int64_t words = 512 * 384 / 2;
    TransferResult r = sys.transfer(words);
    EXPECT_GE(r.cycles, words / 4);
    EXPECT_LE(r.cycles, words / 4 * 12 / 10 + sys.config().latencyCycles);
}

TEST(MemIntegrationTest, EightChannelsShareTheLoadEvenly)
{
    StreamMemSystem sys;
    // A transfer of exactly one word per channel is as fast as one
    // word total (parallel channels).
    int64_t t1 = sys.transfer(1).cycles;
    int64_t t8 = sys.transfer(8).cycles;
    EXPECT_LE(t8, t1 + 2 * sys.tCol());
}

TEST(MemIntegrationTest, BandwidthKnobScalesTransferTime)
{
    StreamMemConfig slow;
    slow.peakWordsPerCycle = 1.0;
    StreamMemConfig fast;
    fast.peakWordsPerCycle = 8.0;
    int64_t words = 32768;
    int64_t ts = StreamMemSystem(slow).transfer(words).busyCycles;
    int64_t tf = StreamMemSystem(fast).transfer(words).busyCycles;
    EXPECT_NEAR(static_cast<double>(ts) / tf, 8.0, 1.5);
}

TEST(MemIntegrationTest, LatencyKnobIndependentOfBandwidth)
{
    StreamMemConfig a;
    a.latencyCycles = 10;
    StreamMemConfig b;
    b.latencyCycles = 500;
    int64_t words = 1024;
    int64_t ta = StreamMemSystem(a).transfer(words).cycles;
    int64_t tb = StreamMemSystem(b).transfer(words).cycles;
    EXPECT_EQ(tb - ta, 490);
}

TEST(MemIntegrationTest, WorstCaseStrideDegradesGracefully)
{
    // A stride of a full row times the channel count both aliases
    // every access onto one channel and thrashes that channel's rows:
    // activate+precharge per access, on a single channel's pins. Costly,
    // but never beyond that bound.
    StreamMemSystem sys;
    const auto &t = sys.config().timing;
    int64_t stride =
        static_cast<int64_t>(t.rowWords) * t.banks * sys.config().channels;
    TransferResult r = sys.transfer(2048, stride);
    int64_t per_access_worst = sys.tCol() + t.tPre + t.tRas;
    EXPECT_LE(r.busyCycles, 2048 * per_access_worst + 64);
    // All the work lands on one channel: the other channels idle.
    EXPECT_GT(r.aliasStallCycles, 0);
    EXPECT_GT(r.busyCycles, sys.transfer(2048, 1).busyCycles);
}

TEST(MemIntegrationTest, SingleWordTransferWellFormed)
{
    StreamMemSystem sys;
    TransferResult r = sys.transfer(1);
    EXPECT_GT(r.busyCycles, 0);
    EXPECT_GT(r.cycles, r.busyCycles);
    EXPECT_GT(r.wordsPerCycle, 0.0);
}

} // namespace
} // namespace sps::mem
