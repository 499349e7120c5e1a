#include "sim/processor.h"

#include <iterator>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "kernel/builder.h"
#include "sim/functional.h"
#include "trace/tracer.h"

namespace sps::sim {
namespace {

const kernel::Kernel &
scaleKernel()
{
    static const kernel::Kernel k = [] {
        kernel::KernelBuilder b("scale");
        int in = b.inStream("in");
        int out = b.outStream("out");
        auto x = b.sbRead(in);
        auto v = x;
        for (int i = 0; i < 12; ++i)
            v = b.fadd(b.fmul(v, x), x);
        b.sbWrite(out, v);
        return b.build();
    }();
    return k;
}

SimConfig
config(int c, int n)
{
    SimConfig cfg;
    cfg.size = vlsi::MachineSize{c, n};
    return cfg;
}

stream::StreamProgram
loadComputeStore(int64_t records)
{
    stream::StreamProgram p("t");
    int in = p.declareStream("in", 1, records, true);
    int out = p.declareStream("out", 1, records);
    p.load(in);
    p.callKernel(&scaleKernel(), {in, out});
    p.store(out);
    return p;
}

int64_t
breakdownSum(const SimCounters &c)
{
    return c.kernelOnlyCycles + c.memOnlyCycles + c.overlapCycles +
           c.idleCycles;
}

TEST(CountersTest, CycleBreakdownSumsToTotal)
{
    SimResult r =
        StreamProcessor(config(8, 5)).run(loadComputeStore(4096));
    EXPECT_EQ(breakdownSum(r.counters), r.cycles);
    // Breakdown components reconcile with the busy aggregates.
    EXPECT_EQ(r.counters.memOnlyCycles + r.counters.overlapCycles,
              r.memBusy);
    EXPECT_EQ(r.counters.kernelOnlyCycles + r.counters.overlapCycles,
              r.ucBusy);
    for (int64_t v :
         {r.counters.kernelOnlyCycles, r.counters.memOnlyCycles,
          r.counters.overlapCycles, r.counters.idleCycles})
        EXPECT_GE(v, 0);
}

TEST(CountersTest, OpAndIssueCounts)
{
    SimConfig cfg = config(8, 5);
    SimResult r = StreamProcessor(cfg).run(loadComputeStore(4096));
    EXPECT_EQ(r.counters.loads, 1);
    EXPECT_EQ(r.counters.stores, 1);
    EXPECT_EQ(r.counters.kernelCalls, 1);
    EXPECT_EQ(r.counters.hostIssueBusyCycles,
              3 * cfg.hostIssueCycles);
    EXPECT_EQ(r.counters.aluIssueSlots, r.cycles * 8 * 5);
    EXPECT_EQ(r.counters.kernelAluSlots, r.ucBusy * 8 * 5);
    // 24 ALU ops per record (12 fmul + 12 fadd).
    EXPECT_EQ(r.aluOps, 24 * 4096);
    EXPECT_GT(r.aluOccupancy(), 0.0);
    EXPECT_GE(r.kernelAluOccupancy(), r.aluOccupancy());
}

TEST(CountersTest, SrfTrafficCountsWords)
{
    SimResult r =
        StreamProcessor(config(8, 5)).run(loadComputeStore(4096));
    // Load writes 4096 words into the SRF, the kernel reads 4096 and
    // writes 4096, the store reads 4096 back out.
    EXPECT_EQ(r.counters.srfWriteWords, 2 * 4096);
    EXPECT_EQ(r.counters.srfReadWords, 2 * 4096);
    EXPECT_GT(r.srfReadBandwidth(), 0.0);
}

TEST(CountersTest, DramCountersAreConsistent)
{
    SimResult r =
        StreamProcessor(config(8, 5)).run(loadComputeStore(4096));
    const SimCounters &c = r.counters;
    EXPECT_EQ(c.dramAccesses, r.memWords);
    EXPECT_EQ(c.dramRowHits + c.dramRowMisses, c.dramAccesses);
    EXPECT_GT(c.dramRowHits, 0);
    // Dense streams should mostly hit open rows.
    EXPECT_GT(r.dramRowHitRate(), 0.8);
    EXPECT_GE(c.dramReorderMax, 0);
    EXPECT_LE(c.dramReorderMax, 16); // bounded by the FR-FCFS window
}

TEST(CountersTest, ContentionCountersAreConsistent)
{
    SimResult r =
        StreamProcessor(config(8, 5)).run(loadComputeStore(4096));
    const SimCounters &c = r.counters;
    EXPECT_GE(c.dramBankConflicts, 0);
    EXPECT_LE(c.dramBankConflicts, c.dramRowMisses);
    EXPECT_GE(c.memAliasStallCycles, 0);
    // One entry per memory channel, populated by the run.
    ASSERT_EQ(c.dramChannelBusyCycles.size(), 8u);
    int64_t sum = 0;
    for (int64_t v : c.dramChannelBusyCycles) {
        EXPECT_GE(v, 0);
        sum += v;
    }
    EXPECT_GE(r.dramChannelBusyMax(), r.dramChannelBusyMin());
    // Total pin work across channels is at least the busy-union.
    EXPECT_GE(sum, r.memBusy);
}

TEST(CountersTest, StallCountersExplainSerialization)
{
    // Two back-to-back dependent kernels: the second waits on the
    // first through the uc pipe; dep stalls appear on the store.
    stream::StreamProgram p("chain");
    int in = p.declareStream("in", 1, 8192, true);
    int mid = p.declareStream("mid", 1, 8192);
    int out = p.declareStream("out", 1, 8192);
    p.load(in);
    p.callKernel(&scaleKernel(), {in, mid});
    p.callKernel(&scaleKernel(), {mid, out});
    p.store(out);
    SimResult r = StreamProcessor(config(8, 5)).run(p);
    EXPECT_GT(r.counters.depStallCycles, 0);
    EXPECT_EQ(r.counters.kernelCalls, 2);
    EXPECT_GT(r.counters.ucOverheadCycles, 0);
}

TEST(CountersTest, TimelineCarriesOpIdsAndKinds)
{
    SimResult r =
        StreamProcessor(config(8, 5)).run(loadComputeStore(1024));
    ASSERT_EQ(r.timeline.size(), 3u);
    EXPECT_EQ(r.timeline[0].opId, 0);
    EXPECT_EQ(r.timeline[1].opId, 1);
    EXPECT_EQ(r.timeline[2].opId, 2);
    EXPECT_EQ(r.timeline[0].kind, OpClass::Load);
    EXPECT_EQ(r.timeline[1].kind, OpClass::Kernel);
    EXPECT_EQ(r.timeline[2].kind, OpClass::Store);
}

TEST(CountersTest, TracingDoesNotChangeResults)
{
    stream::StreamProgram p = loadComputeStore(4096);
    StreamProcessor proc(config(8, 5));
    SimResult plain = proc.run(p);
    trace::Tracer tracer;
    RunOptions opts;
    opts.tracer = &tracer;
    StreamProcessor traced_proc(config(8, 5));
    SimResult traced = traced_proc.run(p, opts);
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.aluOps, traced.aluOps);
    EXPECT_EQ(breakdownSum(plain.counters),
              breakdownSum(traced.counters));
    EXPECT_EQ(plain.counters.dramRowHits, traced.counters.dramRowHits);
    EXPECT_GT(tracer.size(), 0u);
}

TEST(CountersTest, TracedStripMinedTransfersStayApartByOpId)
{
    // Four batches of one load-compute-store strip, every batch's
    // streams declared under the same names: the batches' transfers
    // overlap on the memory track under one label ("load in"), so only
    // their async ids -- the program-order op ids -- keep them apart in
    // a trace viewer.
    stream::StreamProgram prog("strip");
    for (int b = 0; b < 4; ++b) {
        int in = prog.declareStream("in", 1, 2048, true);
        int out = prog.declareStream("out", 1, 2048);
        prog.load(in);
        prog.callKernel(&scaleKernel(), {in, out});
        prog.store(out);
    }
    trace::Tracer tracer;
    RunOptions opts;
    opts.tracer = &tracer;
    StreamProcessor(config(8, 5)).run(prog, opts);

    struct Span
    {
        std::string name;
        int64_t begin = 0, end = -1;
    };
    std::map<int64_t, Span> spans; // by async id
    for (const trace::TraceEvent &ev : tracer.events()) {
        if (ev.tid != trace::kTrackMem)
            continue;
        if (ev.phase == 'b') {
            ASSERT_EQ(spans.count(ev.id), 0u) << "id reused: " << ev.id;
            spans[ev.id] = Span{ev.name, ev.ts};
        } else if (ev.phase == 'e') {
            ASSERT_EQ(spans.count(ev.id), 1u) << "no begin: " << ev.id;
            EXPECT_EQ(spans[ev.id].name, ev.name);
            spans[ev.id].end = ev.ts;
        }
    }
    ASSERT_EQ(spans.size(), 8u); // one per load and store
    int same_label_overlaps = 0;
    for (auto a = spans.begin(); a != spans.end(); ++a)
        for (auto b = std::next(a); b != spans.end(); ++b)
            if (a->second.name == b->second.name &&
                a->second.begin < b->second.end &&
                b->second.begin < a->second.end)
                ++same_label_overlaps;
    EXPECT_GT(same_label_overlaps, 0);
}

TEST(CountersTest, FunctionalRunExecutesKernels)
{
    const int64_t records = 64;
    stream::StreamProgram p = loadComputeStore(records);
    FunctionalContext ctx;
    std::vector<float> in;
    for (int i = 0; i < records; ++i)
        in.push_back(0.25f + 0.001f * static_cast<float>(i));
    ctx.streams[0] = interp::StreamData::fromFloats(in);
    RunOptions opts;
    opts.functional = &ctx;
    StreamProcessor proc(config(8, 5));
    SimResult r = proc.run(p, opts);
    EXPECT_GT(r.cycles, 0);
    ASSERT_TRUE(ctx.has(1));
    auto want =
        interp::runKernel(scaleKernel(), 8,
                          {interp::StreamData::fromFloats(in)});
    EXPECT_EQ(ctx.get(1).words.size(), want.outputs[0].words.size());
    EXPECT_EQ(ctx.get(1).toFloats(), want.outputs[0].toFloats());
}

} // namespace
} // namespace sps::sim
