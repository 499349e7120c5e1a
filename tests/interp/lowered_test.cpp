/**
 * @file
 * Unit tests of the lowered execution engine: the lowering pass
 * (preamble hoisting, phi ring offsets, stream ordinal resolution),
 * the memoized LoweredCache (including concurrent lowering, covered
 * by the TSan CI job), and reference-vs-lowered agreement on small
 * handmade kernels exercising COMM, scratchpad, phi, and conditional
 * streams.
 */
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "kernel/builder.h"

namespace sps::interp {
namespace {

using isa::Opcode;
using isa::Word;
using kernel::Kernel;
using kernel::KernelBuilder;

Kernel
saxpyKernel()
{
    KernelBuilder b("saxpy");
    int in = b.inStream("x");
    int out = b.outStream("y");
    auto a = b.constF(2.5f);
    b.sbWrite(out, b.fadd(b.fmul(a, b.sbRead(in)), b.constF(1.0f)));
    return b.build();
}

TEST(LoweredKernelTest, ConstantsHoistIntoPreamble)
{
    Kernel k = saxpyKernel();
    LoweredKernel lk = lowerKernel(k);
    // Two float constants move to the preamble; SbRead, FMul, FAdd,
    // SbWrite stay in the body.
    EXPECT_EQ(lk.preamble.size(), 2u);
    EXPECT_EQ(lk.body.size(), 4u);
    EXPECT_EQ(lk.nops, 6);
    for (const LoweredInsn &insn : lk.preamble)
        EXPECT_EQ(insn.code, Opcode::ConstFloat);
}

TEST(LoweredKernelTest, StreamOrdinalsAndDriverResolve)
{
    KernelBuilder b("multi");
    int out1 = b.outStream("o1");
    int a = b.inStream("a");
    int drv = b.inStream("drv");
    int out2 = b.outStream("o2");
    b.lengthDriver(drv);
    b.sbWrite(out1, b.sbRead(a));
    b.sbWrite(out2, b.sbRead(drv));
    Kernel k = b.build();
    LoweredKernel lk = lowerKernel(k);
    EXPECT_EQ(lk.nIn, 2);
    EXPECT_EQ(lk.nOut, 2);
    // Stream order is out1, a, drv, out2; ordinals count per
    // direction.
    EXPECT_EQ(lk.ports[static_cast<size_t>(out1)].ordinal, 0);
    EXPECT_EQ(lk.ports[static_cast<size_t>(a)].ordinal, 0);
    EXPECT_EQ(lk.ports[static_cast<size_t>(drv)].ordinal, 1);
    EXPECT_EQ(lk.ports[static_cast<size_t>(out2)].ordinal, 1);
    EXPECT_EQ(lk.driverOrdinal, 1);
    // Both inputs are read unconditionally, so both bound the steady
    // region.
    EXPECT_EQ(lk.steadyReadOrdinals.size(), 2u);
}

TEST(LoweredKernelTest, PhiRingOffsetsPacked)
{
    KernelBuilder b("phis");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p1 = b.phi(Word::fromInt(0), 2);
    auto p2 = b.phi(Word::fromInt(0), 3);
    auto x = b.sbRead(in);
    b.setPhiSource(p1, x);
    b.setPhiSource(p2, x);
    b.sbWrite(out, b.iadd(p1, p2));
    Kernel k = b.build();
    LoweredKernel lk = lowerKernel(k);
    EXPECT_EQ(lk.histRows, 5);
    ASSERT_EQ(lk.latches.size(), 2u);
    EXPECT_EQ(lk.latches[0].histBase, 0);
    EXPECT_EQ(lk.latches[0].distance, 2);
    EXPECT_EQ(lk.latches[1].histBase, 2);
    EXPECT_EQ(lk.latches[1].distance, 3);
}

TEST(LoweredKernelTest, OneLoweringServesEveryClusterCount)
{
    Kernel k = saxpyKernel();
    LoweredKernel lk = lowerKernel(k);
    std::vector<float> xs;
    for (int i = 0; i < 23; ++i)
        xs.push_back(static_cast<float>(i));
    auto in = StreamData::fromFloats(xs);
    for (int c : {1, 2, 7, 16}) {
        auto got = executeLowered(lk, c, {in});
        auto want = runKernelReference(k, c, {in});
        EXPECT_EQ(got.iterations, want.iterations) << "C=" << c;
        EXPECT_EQ(got.outputs[0].words, want.outputs[0].words)
            << "C=" << c;
    }
}

TEST(LoweredKernelTest, CommScratchpadPhiAgreeWithReference)
{
    // Rotate values one cluster left through COMM, accumulate into a
    // scratchpad slot keyed by iteration parity, and emit the sum of
    // both with a distance-2 phi of the rotated value.
    KernelBuilder b("mix");
    int in = b.inStream("in");
    int out = b.outStream("out", 2);
    b.scratchpad(2);
    auto x = b.sbRead(in);
    auto rot = b.comm(x, b.iadd(b.clusterId(), b.constI(1)));
    auto parity = b.iand(b.loopIndex(), b.constI(1));
    auto prev = b.spRead(parity);
    b.spWrite(parity, b.iadd(prev, rot));
    auto p = b.phi(Word::fromInt(-1), 2);
    b.setPhiSource(p, rot);
    b.sbWrite(out, b.iadd(prev, rot), 0);
    b.sbWrite(out, p, 1);
    Kernel k = b.build();

    std::vector<int32_t> data;
    for (int i = 0; i < 37; ++i)
        data.push_back(i * 3 - 11);
    auto in_data = StreamData::fromInts(data);
    for (int c : {1, 3, 4, 8}) {
        auto want = runKernelReference(k, c, {in_data});
        auto got = runKernel(k, c, {in_data});
        EXPECT_EQ(got.iterations, want.iterations) << "C=" << c;
        ASSERT_EQ(got.outputs.size(), want.outputs.size());
        EXPECT_EQ(got.outputs[0].words, want.outputs[0].words)
            << "C=" << c;
    }
}

TEST(LoweredCacheTest, RepeatedRunsLowerOnce)
{
    Kernel k = saxpyKernel();
    LoweredCache cache;
    for (int i = 0; i < 5; ++i)
        cache.get(k);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().hits, 4u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.counters().misses, 0u);
}

TEST(LoweredCacheTest, StructurallyIdenticalKernelsShareAnEntry)
{
    Kernel k1 = saxpyKernel();
    Kernel k2 = saxpyKernel();
    LoweredCache cache;
    const LoweredKernel &a = cache.get(k1);
    const LoweredKernel &b = cache.get(k2);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(LoweredCacheTest, ConcurrentGetLowersEachKernelOnce)
{
    Kernel k = saxpyKernel();
    LoweredCache cache;
    constexpr int kThreads = 8;
    std::vector<const LoweredKernel *> seen(kThreads, nullptr);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back(
                [&, t] { seen[static_cast<size_t>(t)] = &cache.get(k); });
        for (auto &th : threads)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().hits,
              static_cast<uint64_t>(kThreads - 1));
}

TEST(LoweredCacheTest, ConcurrentRunKernelThroughGlobalCache)
{
    // Hammer the process-wide cache the way EvalEngine threads do:
    // concurrent runKernel calls on the same kernel must produce
    // identical outputs with no data race (TSan covers this test).
    Kernel k = saxpyKernel();
    std::vector<float> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(0.25f * static_cast<float>(i));
    auto in = StreamData::fromFloats(xs);
    auto want = runKernelReference(k, 8, {in});

    constexpr int kThreads = 8;
    std::vector<int> ok(kThreads, 0);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                for (int rep = 0; rep < 10; ++rep) {
                    auto got = runKernel(k, 8, {in});
                    if (got.outputs[0].words != want.outputs[0].words)
                        return;
                }
                ok[static_cast<size_t>(t)] = 1;
            });
        for (auto &th : threads)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok[static_cast<size_t>(t)], 1) << "thread " << t;
}

TEST(LoweredKernelTest, LaneClassesDriveSimdLegality)
{
    // Elementwise int/float ops vectorize; FFloor needs the wide
    // (SSE4.1+) tier; COMM is cross-lane but intra-iteration; phis,
    // scratchpad and conditional-stream ops must stay scalar.
    EXPECT_EQ(laneClassOf(Opcode::IAdd), LaneClass::Vector);
    EXPECT_EQ(laneClassOf(Opcode::FMul), LaneClass::Vector);
    EXPECT_EQ(laneClassOf(Opcode::Select), LaneClass::Vector);
    EXPECT_EQ(laneClassOf(Opcode::FToI), LaneClass::Vector);
    EXPECT_EQ(laneClassOf(Opcode::FFloor), LaneClass::VectorWide);
    EXPECT_EQ(laneClassOf(Opcode::SbRead), LaneClass::Stream);
    EXPECT_EQ(laneClassOf(Opcode::SbWrite), LaneClass::Stream);
    EXPECT_EQ(laneClassOf(Opcode::ConstInt), LaneClass::Broadcast);
    EXPECT_EQ(laneClassOf(Opcode::ClusterId), LaneClass::Broadcast);
    EXPECT_EQ(laneClassOf(Opcode::Phi), LaneClass::Scalar);
    EXPECT_EQ(laneClassOf(Opcode::CommPerm), LaneClass::Cross);
    EXPECT_EQ(laneClassOf(Opcode::SbCondRead), LaneClass::Scalar);
    EXPECT_EQ(laneClassOf(Opcode::SbCondWrite), LaneClass::Scalar);
    EXPECT_EQ(laneClassOf(Opcode::SpRead), LaneClass::Scalar);
    EXPECT_EQ(laneClassOf(Opcode::SpWrite), LaneClass::Scalar);

    Kernel k = saxpyKernel();
    LoweredKernel lk = lowerKernel(k);
    for (const LoweredInsn &insn : lk.body)
        EXPECT_EQ(insn.lanes, laneClassOf(insn.code));
}

TEST(LoweredKernelTest, FusibleOnlyWithoutScalarBodyOps)
{
    // Pure elementwise pipeline: fusible.
    EXPECT_TRUE(lowerKernel(saxpyKernel()).fusible);

    // A phi introduces cross-iteration state: not fusible.
    {
        KernelBuilder b("with-phi");
        int in = b.inStream("x");
        int out = b.outStream("y");
        auto p = b.phi(Word::fromInt(0), 1);
        auto s = b.iadd(p, b.sbRead(in));
        b.setPhiSource(p, s);
        b.sbWrite(out, s);
        EXPECT_FALSE(lowerKernel(b.build()).fusible);
    }
    // COMM is cross-lane but confined to one iteration's strip, so
    // it fuses (each sub-strip exchanges within itself).
    {
        KernelBuilder b("with-comm");
        int in = b.inStream("x");
        int out = b.outStream("y");
        b.sbWrite(out, b.comm(b.sbRead(in), b.constI(1)));
        EXPECT_TRUE(lowerKernel(b.build()).fusible);
    }
    // The scratchpad carries state across iterations (read-modify-
    // write accumulators): not fusible.
    {
        KernelBuilder b("with-sp");
        b.scratchpad(4);
        int in = b.inStream("x");
        int out = b.outStream("y");
        auto addr = b.iand(b.sbRead(in), b.constI(3));
        auto sum = b.iadd(b.spRead(addr), b.sbRead(in));
        b.spWrite(addr, sum);
        b.sbWrite(out, sum);
        EXPECT_FALSE(lowerKernel(b.build()).fusible);
    }
}

/** Update-style sandwich: independent head feeding a scratchpad
 *  read-modify-write chain whose result feeds an independent tail. */
Kernel
sandwichKernel()
{
    KernelBuilder b("sandwich");
    b.scratchpad(4);
    int in = b.inStream("x");
    int out = b.outStream("y");
    auto x = b.sbRead(in);
    auto addr = b.iand(x, b.constI(3));
    auto prev = b.spRead(addr);
    auto sum = b.iadd(prev, x);
    b.spWrite(addr, sum);
    auto scaled = b.imul(sum, b.constI(2));
    b.sbWrite(out, scaled);
    return b.build();
}

TEST(LoweredKernelTest, RegionPartitionSplitsSandwichBody)
{
    LoweredKernel lk = lowerKernel(sandwichKernel());
    // Body: sbRead, iand (prefix) | spRead, iadd, spWrite (core) |
    // imul, sbWrite (suffix). Constants hoist to the preamble.
    ASSERT_EQ(lk.body.size(), 7u);
    EXPECT_EQ(lk.coreBegin, 2);
    EXPECT_EQ(lk.coreEnd, 5);
    EXPECT_FALSE(lk.fusible);
    EXPECT_TRUE(lk.partiallyFusible());
    for (int j = 0; j < static_cast<int>(lk.body.size()); ++j) {
        Region want = j < lk.coreBegin   ? Region::Prefix
                      : j < lk.coreEnd   ? Region::Core
                                         : Region::Suffix;
        EXPECT_EQ(lk.body[static_cast<size_t>(j)].region, want)
            << "body op " << j;
    }
    // Off-cone fraction: 4 of 7 body ops run fused under Partial.
    EXPECT_DOUBLE_EQ(lk.fusedOpFraction(FusionPolicy::Partial),
                     4.0 / 7.0);
    EXPECT_DOUBLE_EQ(lk.fusedOpFraction(FusionPolicy::Off), 0.0);
    // A fully fusible body runs entirely fused.
    LoweredKernel saxpy = lowerKernel(saxpyKernel());
    EXPECT_DOUBLE_EQ(saxpy.fusedOpFraction(FusionPolicy::Partial), 1.0);
}

TEST(LoweredKernelTest, RegionPartitionDegenerateSplits)
{
    // Empty suffix: the carried accumulator feeds nothing downstream;
    // the output is written straight from the prefix.
    {
        KernelBuilder b("suffix-empty");
        b.scratchpad(2);
        int in = b.inStream("x");
        int out = b.outStream("y");
        auto x = b.sbRead(in);
        auto addr = b.iand(x, b.constI(1));
        b.spWrite(addr, b.iadd(b.spRead(addr), x));
        b.sbWrite(out, x);
        LoweredKernel lk = lowerKernel(b.build());
        EXPECT_TRUE(lk.partiallyFusible());
        EXPECT_GT(lk.coreBegin, 0);
        EXPECT_EQ(lk.coreEnd, static_cast<int>(lk.body.size()));
    }
    // Empty prefix: the carried chain starts the body (its inputs are
    // preamble constants; the driver stream is deliberately unread)
    // and everything else hangs off it.
    {
        KernelBuilder b("prefix-empty");
        b.inStream("len");
        int out = b.outStream("y");
        auto p = b.phi(Word::fromInt(0), 1);
        auto s = b.iadd(p, b.constI(1));
        b.setPhiSource(p, s);
        b.sbWrite(out, s);
        LoweredKernel lk = lowerKernel(b.build());
        EXPECT_TRUE(lk.partiallyFusible());
        EXPECT_EQ(lk.coreBegin, 0);
        EXPECT_LT(lk.coreEnd, static_cast<int>(lk.body.size()));
    }
    // Phi whose latch source is off-chain: the source is pulled into
    // the cone (it must be computed before the strip retires), never
    // into the suffix.
    {
        KernelBuilder b("latch-pull");
        int in = b.inStream("x");
        int out = b.outStream("y");
        auto x = b.sbRead(in);
        auto p = b.phi(Word::fromInt(0), 1);
        b.setPhiSource(p, x);
        b.sbWrite(out, b.iadd(p, x));
        LoweredKernel lk = lowerKernel(b.build());
        for (const LoweredInsn &insn : lk.body) {
            if (insn.code == Opcode::SbRead)
                EXPECT_NE(insn.region, Region::Suffix);
        }
    }
}

TEST(LoweredKernelTest, PartialFusionMatchesReferenceOnSandwich)
{
    Kernel k = sandwichKernel();
    std::vector<int32_t> data;
    for (int i = 0; i < 531; ++i)
        data.push_back(i * 7 - 300);
    auto in = StreamData::fromInts(data);
    for (int c : {1, 2, 4, 8}) {
        auto want = runKernelReference(k, c, {in});
        for (SimdBackend backend : availableSimdBackends()) {
            for (FusionPolicy fusion :
                 {FusionPolicy::Off, FusionPolicy::Partial}) {
                auto got = runKernel(k, c, {in}, backend, fusion);
                EXPECT_EQ(got.outputs[0].words, want.outputs[0].words)
                    << "C=" << c << " " << simdBackendName(backend)
                    << "/" << fusionPolicyName(fusion);
            }
        }
    }
}

TEST(LoweredKernelTest, FusedWidthIsWholeVectors)
{
    // Every block of fusedStrips(c, tier) strips runs whole vectors:
    // its width is the largest multiple of lcm(c, W) within 64 lanes,
    // or one lcm when that alone is wider. Past 128 lanes the block
    // keeps 64 / c strips.
    for (SimdBackend tier : {SimdBackend::Sse2, SimdBackend::Avx2}) {
        const int w = tier == SimdBackend::Avx2 ? 8 : 4;
        for (int c = 1; c <= 130; ++c) {
            const int strips = fusedStrips(c, tier);
            const int width = strips * c;
            const int unit = std::lcm(c, w);
            ASSERT_GE(strips, 1) << "C=" << c;
            if (unit <= 128) {
                EXPECT_EQ(width % w, 0) << simdBackendName(tier)
                                        << " C=" << c;
                EXPECT_EQ(width % unit, 0) << simdBackendName(tier)
                                           << " C=" << c;
                EXPECT_TRUE(width <= 64 || width == unit)
                    << simdBackendName(tier) << " C=" << c;
                EXPECT_GT(width + unit, 64) << simdBackendName(tier)
                                            << " C=" << c;
            } else {
                EXPECT_EQ(strips, std::max(1, 64 / c))
                    << simdBackendName(tier) << " C=" << c;
            }
        }
    }
    EXPECT_EQ(fusedStrips(3, SimdBackend::Avx2), 16);
    EXPECT_EQ(fusedStrips(3, SimdBackend::Sse2), 20);
    for (int c : {1, 2, 4, 8, 16, 32}) {
        EXPECT_EQ(fusedStrips(c, SimdBackend::Avx2) * c, 64);
        EXPECT_EQ(fusedStrips(c, SimdBackend::Sse2) * c, 64);
    }
    for (int c : {65, 72, 100, 128, 130})
        EXPECT_EQ(fusedStrips(c, SimdBackend::Avx2), 1) << "C=" << c;
    EXPECT_EQ(fusedStrips(3, SimdBackend::Scalar), 1);
}

TEST(LoweredCacheTest, OneEntryServesEveryBackend)
{
    // The cache key is the structural fingerprint; nothing about the
    // lowering — including the region partition — depends on the
    // execution backend or fusion policy, so running the same kernel
    // under every backend x policy combination must not add entries,
    // and the shared entry's region metadata must be what every
    // configuration executes.
    LoweredCache cache;
    Kernel k = sandwichKernel();
    const LoweredKernel &lk = cache.get(k);
    const int core_begin = lk.coreBegin;
    const int core_end = lk.coreEnd;
    std::vector<StreamData> inputs{
        StreamData::fromInts({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})};
    ExecResult want = executeLowered(lk, 2, inputs,
                                     SimdBackend::Scalar);
    for (SimdBackend backend : availableSimdBackends()) {
        for (FusionPolicy fusion :
             {FusionPolicy::Off, FusionPolicy::Partial}) {
            const LoweredKernel &entry = cache.get(k);
            EXPECT_EQ(&entry, &lk);
            EXPECT_EQ(entry.coreBegin, core_begin);
            EXPECT_EQ(entry.coreEnd, core_end);
            ExecResult got =
                executeLowered(entry, 2, inputs, backend, fusion);
            EXPECT_EQ(got.outputs[0].words, want.outputs[0].words)
                << simdBackendName(backend) << "/"
                << fusionPolicyName(fusion);
        }
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
}

} // namespace
} // namespace sps::interp
