#include "mem/stream_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/prng.h"

namespace sps::mem {
namespace {

void
mixResult(Fnv &h, const TransferResult &r)
{
    for (int64_t v : {r.startCycle, r.serviceStart, r.doneCycle, r.cycles,
                      r.busyCycles, r.dramAccesses, r.dramRowHits,
                      r.dramRowMisses, r.bankConflicts, r.dramReorderSum,
                      r.dramReorderMax, r.aliasStallCycles})
        h.mix(static_cast<uint64_t>(v));
    h.mix(std::bit_cast<uint64_t>(r.wordsPerCycle));
}

void
mixBusyIntervals(Fnv &h, StreamMemSystem &sys)
{
    std::vector<BusyInterval> ivs;
    sys.takeBusyIntervals(ivs);
    for (const BusyInterval &iv : ivs) {
        h.mix(static_cast<uint64_t>(iv.start));
        h.mix(static_cast<uint64_t>(iv.end));
    }
}

/** A random transfer: dense, gapped, overlapping (stride < record)
 *  or channel-aliased records; sizes up to three times the 8192-word
 *  simulation cap. */
TransferDesc
randomTransfer(Prng &prng, const StreamMemConfig &cfg, int64_t clock)
{
    TransferDesc d;
    uint32_t size_kind = prng.below(8);
    d.words = size_kind == 0   ? 0
              : size_kind == 1 ? 8192 + prng.below(16384)
                               : 1 + prng.below(1500);
    d.baseWord = prng.below(1u << 20);
    d.recordWords = 1 + prng.below(12);
    switch (prng.below(5)) {
    case 0: d.strideWords = 0; break;
    case 1: d.strideWords = d.recordWords; break;
    case 2: d.strideWords = 1 + prng.below(
                static_cast<uint32_t>(d.recordWords)); break;
    case 3: d.strideWords = d.recordWords + prng.below(40); break;
    default:
        d.strideWords = static_cast<int64_t>(cfg.channels) *
                        (1 + prng.below(64));
    }
    d.startCycle = clock + prng.below(3000);
    d.write = prng.below(2) != 0;
    return d;
}

TEST(StreamMemTest, SeededBatchesMatchPinnedDigest)
{
    // Joint service must stay bit-exact on every batch shape, not only
    // the dense single-transfer batches the Figure-15 grid produces:
    // every result field, per-channel counter and busy interval of a
    // few hundred random configs and batches folds into one digest.
    Prng prng(0x5eed'd1a6);
    Fnv h;
    for (int trial = 0; trial < 300; ++trial) {
        StreamMemConfig cfg;
        cfg.channels = 1 + static_cast<int>(prng.below(9));
        cfg.peakWordsPerCycle = 0.25 * (1 + prng.below(32));
        cfg.latencyCycles = static_cast<int>(prng.below(100));
        cfg.timing.tRas = 1 + static_cast<int>(prng.below(12));
        cfg.timing.tPre = static_cast<int>(prng.below(10));
        cfg.timing.banks = 1 + static_cast<int>(prng.below(9));
        cfg.timing.rowWords = 1 + static_cast<int>(
            prng.below(2) != 0 ? prng.below(40) : prng.below(1024));
        cfg.schedWindow = 1 + static_cast<int>(prng.below(24));
        cfg.schedMaxBypass = 1 + static_cast<int>(prng.below(80));
        StreamMemSystem sys(cfg);
        sys.beginProgram();
        int64_t clock = 0;
        int batches = 1 + static_cast<int>(prng.below(3));
        for (int b = 0; b < batches; ++b) {
            std::vector<int> tickets;
            int nt = 1 + static_cast<int>(prng.below(5));
            for (int t = 0; t < nt; ++t)
                tickets.push_back(
                    sys.submit(randomTransfer(prng, cfg, clock)));
            // Resolve explicitly, or let the first result() do it.
            if (prng.below(2) != 0)
                sys.resolveAll();
            for (int ticket : tickets) {
                const TransferResult &r = sys.result(ticket);
                mixResult(h, r);
                clock = std::max(clock, r.doneCycle / 2);
            }
            mixBusyIntervals(h, sys);
        }
        for (const ChannelStats &cs : sys.channelStats())
            for (int64_t v : {cs.busyCycles, cs.accesses, cs.rowHits,
                              cs.bankConflicts})
                h.mix(static_cast<uint64_t>(v));
        // Standalone transfer() on the same system: reset channels.
        int64_t words =
            1 + prng.below(prng.below(4) != 0 ? 3000 : 12000);
        int64_t stride = 1 + prng.below(prng.below(2) != 0 ? 4 : 2048);
        mixResult(h, sys.transfer(words, stride));
        mixBusyIntervals(h, sys);
    }
    EXPECT_EQ(h.h, 0x8385bd27223c4a25ull)
        << std::hex << "digest 0x" << h.h;
}

TEST(StreamMemTest, SharedStartBatchesMatchPinnedDigest)
{
    // The batch shapes the digest above rarely draws: one transfer,
    // usually a later-submitted one, starts alone; two or more of the
    // others become ready together at one later cycle, inside the
    // first one's row runs or after it has finished on a channel; and
    // most transfers reuse the previous base, so their first requests
    // hit rows left open.
    Prng prng(0x5a4e'd57a);
    Fnv h;
    for (int trial = 0; trial < 400; ++trial) {
        StreamMemConfig cfg;
        cfg.channels = 1 + static_cast<int>(prng.below(8));
        cfg.peakWordsPerCycle = 0.5 * (1 + prng.below(16));
        cfg.latencyCycles = static_cast<int>(prng.below(60));
        cfg.timing.tRas = static_cast<int>(prng.below(10));
        cfg.timing.tPre = static_cast<int>(prng.below(8));
        cfg.timing.banks = 1 + static_cast<int>(prng.below(8));
        cfg.timing.rowWords = 1 + static_cast<int>(
            prng.below(prng.below(2) != 0 ? 64 : 600));
        cfg.schedWindow = 1 + static_cast<int>(prng.below(20));
        cfg.schedMaxBypass = 1 + static_cast<int>(prng.below(40));
        StreamMemSystem sys(cfg);
        sys.beginProgram();
        int64_t clock = 0;
        int64_t base = prng.below(1u << 16);
        int batches = 1 + static_cast<int>(prng.below(4));
        for (int b = 0; b < batches; ++b) {
            auto nt = 2 + prng.below(4);
            uint32_t alone = prng.below(nt);
            int64_t shared =
                clock + 1 + prng.below(prng.below(2) != 0 ? 64 : 2048);
            std::vector<int> tickets;
            for (uint32_t t = 0; t < nt; ++t) {
                TransferDesc d;
                d.words = 1 + prng.below(prng.below(4) != 0 ? 1200 : 6000);
                if (prng.below(3) == 0)
                    base = prng.below(1u << 16);
                d.baseWord = base;
                d.recordWords = 1 + prng.below(8);
                d.strideWords =
                    prng.below(2) != 0 ? 0
                                       : d.recordWords + prng.below(24);
                d.startCycle = t == alone ? clock
                               : prng.below(4) != 0
                                   ? shared
                                   : shared + prng.below(512);
                tickets.push_back(sys.submit(d));
            }
            sys.resolveAll();
            int64_t last_done = clock;
            for (int ticket : tickets) {
                const TransferResult &r = sys.result(ticket);
                mixResult(h, r);
                last_done = std::max(last_done, r.doneCycle);
            }
            mixBusyIntervals(h, sys);
            // Start the next batch once these channels have (nearly)
            // drained, so its first transfer really starts alone.
            clock = std::max(clock, last_done - prng.below(64));
        }
        for (const ChannelStats &cs : sys.channelStats())
            for (int64_t v : {cs.busyCycles, cs.accesses, cs.rowHits,
                              cs.bankConflicts})
                h.mix(static_cast<uint64_t>(v));
    }
    EXPECT_EQ(h.h, 0x8a869154940c4d6eull)
        << std::hex << "digest 0x" << h.h;
}

/** A transfer's record layout: dense, gapped or channel-aliased. */
void
randomLayout(Prng &prng, const StreamMemConfig &cfg, TransferDesc &d)
{
    d.recordWords = 1 + prng.below(12);
    switch (prng.below(4)) {
    case 0: d.strideWords = 0; break;
    case 1: d.strideWords = d.recordWords + 1 + prng.below(40); break;
    case 2:
        d.strideWords = static_cast<int64_t>(cfg.channels) *
                        (1 + prng.below(64));
        break;
    default: d.strideWords = d.recordWords;
    }
}

TEST(StreamMemTest, LoneTransferProgramsMatchPinnedDigest)
{
    // The batch shape of a Figure-15 program: once the scoreboard
    // fills, every op issue resolves the one pending transfer, so a
    // program is a long run of one-transfer batches. Here each program
    // is 100-400 of them, over dense, gapped and channel-aliased
    // layouts, starting before, at or after the channels free. Many
    // bases sit a few words short of a channel row's end, with the
    // next row opened, holding another row of its bank, or left as it
    // is, so some heads miss with fewer than a window of words left
    // in their row. Now and then a transfer is over the cap, and
    // traced and untraced submits mix; the trace events fold in too.
    Prng prng(0x10e'7a45);
    Fnv h;
    for (int trial = 0; trial < 60; ++trial) {
        StreamMemConfig cfg;
        if (prng.below(2) != 0) {
            cfg.channels = 1 + static_cast<int>(prng.below(8));
            cfg.peakWordsPerCycle = 0.5 * (1 + prng.below(16));
            cfg.latencyCycles = static_cast<int>(prng.below(60));
            cfg.timing.tRas = static_cast<int>(prng.below(10));
            cfg.timing.tPre = static_cast<int>(prng.below(8));
            cfg.timing.banks = 1 + static_cast<int>(prng.below(8));
            cfg.timing.rowWords = 1 + static_cast<int>(
                prng.below(prng.below(2) != 0 ? 64 : 600));
            cfg.schedWindow = 1 + static_cast<int>(prng.below(20));
            cfg.schedMaxBypass = 1 + static_cast<int>(prng.below(40));
        }
        const int64_t channels = cfg.channels;
        const int64_t row = cfg.timing.rowWords;
        StreamMemSystem sys(cfg);
        trace::Tracer tracer;
        sys.beginProgram();
        // Where the channels were last seen to free, and the word
        // after the previous transfer's last one.
        int64_t free_at = 0;
        int64_t next_word = 0;
        auto run = [&](const TransferDesc &d, bool traced, int op) {
            TransferTrace tr{&tracer,
                             prng.below(4) != 0 ? "op" + std::to_string(op)
                                                : std::string(),
                             op};
            int ticket = sys.submit(d, traced ? &tr : nullptr);
            if (prng.below(2) != 0)
                sys.resolveAll();
            const TransferResult &r = sys.result(ticket);
            mixResult(h, r);
            free_at = std::max(free_at, r.doneCycle - cfg.latencyCycles);
            next_word = d.baseWord +
                        (d.strideWords > d.recordWords
                             ? d.strideWords * ((d.words + d.recordWords - 1) /
                                                d.recordWords)
                             : d.words);
            if (prng.below(4) == 0)
                mixBusyIntervals(h, sys);
        };
        auto start = [&] {
            switch (prng.below(3)) {
            case 0:
                return std::max<int64_t>(0, free_at - prng.below(2000));
            case 1: return free_at;
            default: return free_at + prng.below(2000);
            }
        };
        int transfers = 100 + static_cast<int>(prng.below(301));
        for (int op = 0; op < transfers; ++op) {
            TransferDesc d;
            d.words = prng.below(16) == 0 ? 8192 + prng.below(16384)
                      : prng.below(24) == 0
                          ? 0
                          : 1 + prng.below(prng.below(2) != 0 ? 64
                                                               : 8192);
            randomLayout(prng, cfg, d);
            d.write = prng.below(2) != 0;
            bool traced = prng.below(2) != 0;
            switch (prng.below(4)) {
            case 0: d.baseWord = next_word; break;
            case 1: d.baseWord = prng.below(1u << 20); break;
            default: {
                // A few words short of the end of channel-local row r
                // (on every channel), after an opener that leaves the
                // next row open, its bank holding another row, or
                // nothing.
                int64_t r = 1 + prng.below(2048);
                int64_t short_by =
                    1 + prng.below(static_cast<uint32_t>(cfg.schedWindow) + 4);
                uint32_t opener = prng.below(3);
                if (opener < 2) {
                    TransferDesc o;
                    o.words = 1 + prng.below(
                                      static_cast<uint32_t>(2 * channels));
                    o.baseWord =
                        (r + (opener == 0 ? 0 : cfg.timing.banks)) * row *
                        channels;
                    o.startCycle = start();
                    run(o, prng.below(2) != 0, op);
                }
                d.baseWord = std::max<int64_t>(
                    0, (r * row - short_by) * channels +
                           prng.below(static_cast<uint32_t>(channels)));
            }
            }
            d.startCycle = start();
            run(d, traced, op);
        }
        mixBusyIntervals(h, sys);
        for (const ChannelStats &cs : sys.channelStats())
            for (int64_t v : {cs.busyCycles, cs.accesses, cs.rowHits,
                              cs.bankConflicts})
                h.mix(static_cast<uint64_t>(v));
        for (const trace::TraceEvent &e : tracer.events()) {
            h.mix(e.name);
            h.mix(e.cat);
            for (int64_t v : {e.ts, e.dur, e.id,
                              static_cast<int64_t>(e.phase),
                              static_cast<int64_t>(e.tid)})
                h.mix(static_cast<uint64_t>(v));
            for (const trace::TraceArg &a : e.args) {
                h.mix(a.first);
                h.mix(static_cast<uint64_t>(a.second));
            }
        }
    }
    EXPECT_EQ(h.h, 0x0ed60d4c6eca8010ull)
        << std::hex << "digest 0x" << h.h;
}

/** One program: its batches of transfers, each resolved in turn. */
using Program = std::vector<std::vector<TransferDesc>>;

/** Everything a program run reports, flattened for comparison. */
struct ProgramRun
{
    std::vector<int64_t> results;
    std::vector<int64_t> busyIntervals;
    std::vector<int64_t> channelStats;
};

ProgramRun
runProgram(StreamMemSystem &sys, const Program &prog)
{
    ProgramRun run;
    sys.beginProgram();
    for (const std::vector<TransferDesc> &batch : prog) {
        std::vector<int> tickets;
        for (const TransferDesc &d : batch)
            tickets.push_back(sys.submit(d));
        sys.resolveAll();
        for (int ticket : tickets) {
            const TransferResult &r = sys.result(ticket);
            run.results.insert(
                run.results.end(),
                {r.startCycle, r.serviceStart, r.doneCycle, r.cycles,
                 r.busyCycles, r.dramAccesses, r.dramRowHits,
                 r.dramRowMisses, r.bankConflicts, r.dramReorderSum,
                 r.dramReorderMax, r.aliasStallCycles,
                 std::bit_cast<int64_t>(r.wordsPerCycle)});
        }
        std::vector<BusyInterval> ivs;
        sys.takeBusyIntervals(ivs);
        for (const BusyInterval &iv : ivs)
            run.busyIntervals.insert(run.busyIntervals.end(),
                                     {iv.start, iv.end});
    }
    for (const ChannelStats &cs : sys.channelStats())
        run.channelStats.insert(run.channelStats.end(),
                                {cs.busyCycles, cs.accesses, cs.rowHits,
                                 cs.bankConflicts});
    return run;
}

TEST(StreamMemTest, ReusedSystemMatchesFreshSystemPerProgram)
{
    // A system keeps its batch buffers across resolves and programs.
    // Serving a sequence of programs whose batches grow, then shrink
    // in transfer count, it must report exactly what a fresh system
    // reports for each program: no batch may see an earlier one's
    // totals, cursors or window entries. Half the transfers touch only
    // some channels, so batches leave (transfer, channel) slots that an
    // earlier, later-running program filled.
    Prng prng(0x2e05'ed5c);
    for (int trial = 0; trial < 4; ++trial) {
        StreamMemConfig cfg;
        cfg.channels = 2 + static_cast<int>(prng.below(7));
        cfg.timing.banks = 1 + static_cast<int>(prng.below(8));
        cfg.timing.rowWords = 8 + static_cast<int>(prng.below(256));
        cfg.schedWindow = 1 + static_cast<int>(prng.below(16));
        cfg.schedMaxBypass = 1 + static_cast<int>(prng.below(32));
        StreamMemSystem reused(cfg);
        for (int p = 0; p < 6; ++p) {
            // Batch sizes ramp up to a peak and back down; the peak
            // differs per program, so later programs also shrink.
            const int peak = 1 + static_cast<int>(prng.below(9));
            Program prog;
            int64_t clock = 0;
            for (int nt = 1; nt <= peak; ++nt)
                prog.emplace_back(static_cast<size_t>(nt));
            for (int nt = peak - 1; nt >= 1; --nt)
                prog.emplace_back(static_cast<size_t>(nt));
            for (std::vector<TransferDesc> &batch : prog) {
                for (TransferDesc &d : batch) {
                    d = randomTransfer(prng, cfg, clock);
                    if (prng.below(2) != 0) {
                        auto channels = static_cast<uint32_t>(cfg.channels);
                        d.words = 1 + prng.below(600);
                        d.recordWords = 1 + prng.below(channels - 1);
                        d.strideWords = cfg.channels * (1 + prng.below(4));
                    }
                }
                clock += prng.below(6000);
            }
            StreamMemSystem fresh(cfg);
            ProgramRun want = runProgram(fresh, prog);
            ProgramRun got = runProgram(reused, prog);
            EXPECT_EQ(got.results, want.results)
                << "trial " << trial << " program " << p;
            EXPECT_EQ(got.busyIntervals, want.busyIntervals)
                << "trial " << trial << " program " << p;
            EXPECT_EQ(got.channelStats, want.channelStats)
                << "trial " << trial << " program " << p;
        }
    }
}

TEST(StreamMemTest, DenseTransferApproachesPeakBandwidth)
{
    StreamMemSystem sys;
    TransferResult r = sys.transfer(64 * 1024);
    EXPECT_GT(r.wordsPerCycle,
              0.7 * sys.config().peakWordsPerCycle);
    EXPECT_LE(r.wordsPerCycle,
              sys.config().peakWordsPerCycle + 1e-9);
}

TEST(StreamMemTest, LatencyChargedOnce)
{
    StreamMemSystem sys;
    TransferResult tiny = sys.transfer(1);
    EXPECT_GE(tiny.cycles, sys.config().latencyCycles);
    EXPECT_LE(tiny.cycles, sys.config().latencyCycles + 32);
}

TEST(StreamMemTest, ZeroWordsIsFree)
{
    StreamMemSystem sys;
    EXPECT_EQ(sys.transfer(0).cycles, 0);
}

TEST(StreamMemTest, DurationScalesLinearly)
{
    StreamMemSystem sys;
    int64_t t1 = sys.transfer(4096).cycles;
    int64_t t2 = sys.transfer(8192).cycles;
    double ratio = static_cast<double>(t2 - sys.config().latencyCycles) /
                   static_cast<double>(t1 - sys.config().latencyCycles);
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(StreamMemTest, LargeTransfersExtrapolatedConsistently)
{
    StreamMemSystem sys;
    // Beyond the simulation cap, busy cycles grow linearly.
    int64_t a = sys.transfer(1 << 16).busyCycles;
    int64_t b = sys.transfer(1 << 17).busyCycles;
    EXPECT_NEAR(static_cast<double>(b) / a, 2.0, 0.05);
}

TEST(StreamMemTest, StridedTransferNoFasterThanDense)
{
    StreamMemSystem sys;
    int64_t dense = sys.transfer(8192, 1).cycles;
    int64_t strided = sys.transfer(8192, 1024).cycles;
    EXPECT_GE(strided, dense);
}

TEST(StreamMemTest, StrideEqualToChannelsAliasesOntoOneChannel)
{
    // Regression for the element-index interleave bug: channel
    // assignment is by word address, so a record stride equal to the
    // channel count lands every access on one channel and sustains at
    // most a 1/channels share of peak bandwidth.
    StreamMemSystem sys;
    int c = sys.config().channels;
    TransferResult r = sys.transfer(4096, c);
    EXPECT_LE(r.wordsPerCycle,
              sys.config().peakWordsPerCycle / c + 1e-9);
    EXPECT_GT(r.aliasStallCycles, 0);
    // A dense transfer of the same size balances the channels.
    TransferResult d = sys.transfer(4096, 1);
    EXPECT_EQ(d.aliasStallCycles, 0);
    EXPECT_GT(d.wordsPerCycle, r.wordsPerCycle * (c - 1));
}

TEST(StreamMemTest, ExtrapolatedCountersKeepExactIdentities)
{
    // Extrapolation scales the simulated prefix with round-to-nearest
    // (not integer truncation) while keeping the counter identities
    // exact, including at sizes that are not multiples of the cap.
    StreamMemSystem sys;
    for (int64_t words : {100000LL, 8192LL * 3 + 1, 65536LL}) {
        TransferResult r = sys.transfer(words);
        EXPECT_EQ(r.dramAccesses, words);
        EXPECT_EQ(r.dramRowHits + r.dramRowMisses, words);
        EXPECT_LE(r.bankConflicts, r.dramRowMisses);
        EXPECT_GE(r.bankConflicts, 0);
        // Dense stream: roughly one miss per row.
        EXPECT_GT(static_cast<double>(r.dramRowHits) /
                      static_cast<double>(words),
                  0.95);
    }
}

TEST(StreamMemTest, ExtrapolationRoundsToNearest)
{
    // 3x the words must cost ~3x the pin time; the old truncating
    // integer scaling lost up to a channel-count of cycles per batch.
    StreamMemSystem sys;
    int64_t b1 = sys.transfer(8192).busyCycles;
    int64_t b3 = sys.transfer(3 * 8192).busyCycles;
    EXPECT_NEAR(static_cast<double>(b3) / static_cast<double>(b1),
                3.0, 0.01);
}

TEST(StreamMemTest, OverlappingTransfersContendForChannels)
{
    StreamMemSystem sys;
    TransferDesc a;
    a.words = 8192;
    a.baseWord = 0;
    a.recordWords = 1;
    a.startCycle = 0;
    TransferDesc b = a;
    b.baseWord = 1 << 20;

    sys.beginProgram();
    int t = sys.submit(a);
    sys.resolveAll();
    int64_t alone_done = sys.result(t).doneCycle;
    int64_t alone_busy = sys.result(t).busyCycles;

    // Submitted into the same batch, the transfers interleave through
    // the shared per-channel scheduler windows: each finishes later
    // than it would alone, and the channels work for both.
    sys.beginProgram();
    int ta = sys.submit(a);
    int tb = sys.submit(b);
    sys.resolveAll();
    EXPECT_GT(sys.result(ta).doneCycle, alone_done);
    EXPECT_GT(sys.result(tb).doneCycle, alone_done);
    // Combined pin work strictly exceeds either transfer alone
    // (per-channel busy accumulates both batches' service).
    int64_t total_busy = 0;
    for (const ChannelStats &cs : sys.channelStats())
        total_busy += cs.busyCycles;
    EXPECT_GT(total_busy, alone_busy * sys.config().channels);
}

TEST(StreamMemTest, ChannelStatePersistsAcrossResolvesInOneProgram)
{
    // Rows opened by the first batch stay open for the second: a
    // re-read of the same addresses is all row hits.
    StreamMemSystem sys;
    TransferDesc d;
    d.words = 4096;
    d.baseWord = 0;
    d.recordWords = 1;
    d.startCycle = 0;
    sys.beginProgram();
    int t1 = sys.submit(d);
    sys.resolveAll();
    TransferDesc again = d;
    again.startCycle = sys.result(t1).doneCycle;
    int t2 = sys.submit(again);
    sys.resolveAll();
    EXPECT_GT(sys.result(t1).dramRowMisses, 0);
    EXPECT_EQ(sys.result(t2).dramRowMisses, 0);
    EXPECT_LT(sys.result(t2).busyCycles, sys.result(t1).busyCycles);
}

TEST(StreamMemTest, FortyFiveNmConfigMatchesPaper)
{
    StreamMemConfig cfg = StreamMemConfig::fortyFiveNm();
    EXPECT_EQ(cfg.channels, 8);
    EXPECT_DOUBLE_EQ(cfg.peakWordsPerCycle, 4.0); // 16 GB/s at 1 GHz
    EXPECT_EQ(cfg.latencyCycles, 55);             // Table 1's T
}

} // namespace
} // namespace sps::mem
