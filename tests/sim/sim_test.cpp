#include "sim/processor.h"

#include <gtest/gtest.h>

#include <set>

#include "kernel/builder.h"
#include "store/codec.h"
#include "workloads/suite.h"

namespace sps::sim {
namespace {

const kernel::Kernel &
workKernel()
{
    static const kernel::Kernel k = [] {
        kernel::KernelBuilder b("work");
        int in = b.inStream("in");
        int out = b.outStream("out");
        auto x = b.sbRead(in);
        auto v = x;
        for (int i = 0; i < 20; ++i)
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
    p.callKernel(&workKernel(), {in, out});
    p.store(out);
    return p;
}

TEST(SimTest, RunsSimpleProgram)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p = loadComputeStore(4096);
    SimResult r = proc.run(p);
    EXPECT_GT(r.cycles, 0);
    EXPECT_EQ(r.aluOps, 40 * 4096);
    EXPECT_EQ(r.memWords, 2 * 4096);
    EXPECT_EQ(r.timeline.size(), 3u);
}

TEST(SimTest, MoreClustersRunFaster)
{
    stream::StreamProgram p = loadComputeStore(65536);
    SimResult small = StreamProcessor(config(8, 5)).run(p);
    SimResult big = StreamProcessor(config(64, 5)).run(p);
    EXPECT_LT(big.cycles, small.cycles);
}

TEST(SimTest, KernelWaitsForLoad)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p = loadComputeStore(4096);
    SimResult r = proc.run(p);
    // Timeline order: load, kernel, store; kernel starts only after
    // the load completes, store after the kernel.
    EXPECT_GE(r.timeline[1].start, r.timeline[0].end);
    EXPECT_GE(r.timeline[2].start, r.timeline[1].end);
}

TEST(SimTest, IndependentLoadOverlapsKernel)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p("overlap");
    int a = p.declareStream("a", 1, 8192, true);
    int oa = p.declareStream("oa", 1, 8192);
    int b = p.declareStream("b", 1, 8192, true);
    p.load(a);
    p.callKernel(&workKernel(), {a, oa});
    p.load(b); // independent of the kernel
    SimResult r = proc.run(p);
    // The second load starts before the kernel finishes.
    EXPECT_LT(r.timeline[2].start, r.timeline[1].end);
}

TEST(SimTest, DoubleBufferingBeatsSerialExecution)
{
    // Two batches with independent streams finish faster than the
    // same work forced through one (dependent) stream chain.
    stream::StreamProgram indep("indep");
    stream::StreamProgram serial("serial");
    for (int i = 0; i < 2; ++i) {
        std::string t = std::to_string(i);
        int in = indep.declareStream("in" + t, 1, 16384, true);
        int out = indep.declareStream("out" + t, 1, 16384);
        indep.load(in);
        indep.callKernel(&workKernel(), {in, out});
    }
    int in = serial.declareStream("in", 1, 16384, true);
    int out = serial.declareStream("out", 1, 16384);
    for (int i = 0; i < 2; ++i) {
        serial.load(in);
        serial.callKernel(&workKernel(), {in, out});
        if (i == 0) {
            serial.store(out);
        }
    }
    SimResult ri = StreamProcessor(config(8, 5)).run(indep);
    SimResult rs = StreamProcessor(config(8, 5)).run(serial);
    EXPECT_LE(ri.cycles, rs.cycles);
}

TEST(SimTest, MemoryTransfersSerializeOnChannelBandwidth)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p("two-loads");
    int a = p.declareStream("a", 1, 32768, true);
    int b = p.declareStream("b", 1, 32768, true);
    p.load(a);
    p.load(b);
    SimResult r = proc.run(p);
    // Aggregate bandwidth is shared: the transfers interleave through
    // the channels, so the pair cannot finish before the
    // peak-bandwidth floor for the combined words (2 * 32768 words at
    // 4 words/cycle), and the pins are busy at least that long.
    int64_t floor_cycles = 2 * 32768 / 4;
    EXPECT_GE(std::max(r.timeline[0].end, r.timeline[1].end),
              floor_cycles);
    EXPECT_GE(r.memBusy, floor_cycles);
    // They do overlap rather than queueing whole-transfer-at-a-time.
    EXPECT_LT(r.timeline[1].start, r.timeline[0].end);
}

TEST(SimTest, GopsAccountingUsesClock)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p = loadComputeStore(4096);
    SimResult r = proc.run(p);
    EXPECT_NEAR(r.gops(1.0),
                static_cast<double>(r.gopsOps) / r.cycles, 1e-9);
    EXPECT_NEAR(r.gops(2.0), 2.0 * r.gops(1.0), 1e-9);
}

TEST(SimTest, SrfHighWaterTracked)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p = loadComputeStore(4096);
    SimResult r = proc.run(p);
    // in + out resident at once.
    EXPECT_GE(r.srfHighWater, 2 * 4096);
    EXPECT_LE(r.srfHighWater, proc.srf().capacityWords);
}

TEST(SimTest, BusyFractionsAreSane)
{
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p = loadComputeStore(65536);
    SimResult r = proc.run(p);
    EXPECT_GT(r.ucBusyFraction(), 0.0);
    EXPECT_LE(r.ucBusyFraction(), 1.0);
    EXPECT_GT(r.memBusyFraction(), 0.0);
    EXPECT_LE(r.memBusyFraction(), 1.0);
}

TEST(SimTest, CompilationCachedByKernelName)
{
    StreamProcessor proc(config(8, 5));
    const auto &a = proc.compile(workKernel());
    const auto &b = proc.compile(workKernel());
    EXPECT_EQ(&a, &b);
}

// executeProgram looks each distinct kernel up once per program, not
// once per call, and gives the same result as StreamProcessor::run.
TEST(SimTest, LooksUpEachDistinctKernelOnce)
{
    StreamProcessor proc(config(8, 5));
    const SimConfig &cfg = proc.config();
    stream::StreamProgram prog = workloads::buildQrd(cfg.size, proc.srf());
    std::set<const kernel::Kernel *> distinct;
    size_t calls = 0;
    for (const stream::StreamOp &op : prog.ops()) {
        if (op.k) {
            distinct.insert(op.k);
            ++calls;
        }
    }
    ASSERT_EQ(distinct.size(), 2u);
    ASSERT_EQ(calls, 2240u);

    ControllerConfig ctrl;
    ctrl.clusters = cfg.size.clusters;
    ctrl.alusPerCluster = cfg.size.alusPerCluster;
    ctrl.hostIssueCycles = cfg.hostIssueCycles;
    ctrl.scoreboardDepth = cfg.scoreboardDepth;
    ctrl.srfPeakWordsPerCycle = proc.srf().peakWordsPerCycle;
    Microcontroller uc(cfg.ucConfig, cfg.size.clusters);
    srf::Allocator alloc(proc.srf().capacityWords);
    mem::StreamMemSystem memsys(cfg.memConfig);
    size_t lookups = 0;
    CompileFn compile =
        [&](const kernel::Kernel &k) -> const sched::CompiledKernel & {
        ++lookups;
        return proc.compile(k);
    };
    SimResult direct =
        executeProgram(prog, ctrl, memsys, uc, alloc, compile);
    EXPECT_EQ(lookups, distinct.size());
    direct.energy = proc.accountant().account(direct);

    store::ByteWriter a, b;
    store::encodeSimResult(direct, &a);
    store::encodeSimResult(proc.run(prog), &b);
    EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(SimTest, HostIssueBoundsManyTinyOps)
{
    // A program of many empty kernel calls is bounded below by the
    // host's issue bandwidth.
    StreamProcessor proc(config(8, 5));
    stream::StreamProgram p("tiny");
    int in = p.declareStream("in", 1, 8, true);
    std::vector<int> outs;
    p.load(in);
    const int calls = 64;
    for (int i = 0; i < calls; ++i) {
        int out = p.declareStream("o" + std::to_string(i), 1, 8);
        p.callKernel(&workKernel(), {in, out});
    }
    SimResult r = proc.run(p);
    EXPECT_GE(r.cycles,
              static_cast<int64_t>(calls) *
                  proc.config().hostIssueCycles);
}

} // namespace
} // namespace sps::sim
