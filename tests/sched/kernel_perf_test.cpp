#include "sched/kernel_perf.h"

#include <bit>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "core/experiments.h"
#include "kernel/builder.h"
#include "sched/depgraph.h"
#include "sched/list_sched.h"
#include "sched/unroll.h"
#include "workloads/suite.h"

namespace sps::sched {
namespace {

using kernel::Kernel;
using kernel::KernelBuilder;

TEST(KernelPerfTest, CompilesSuiteKernelOnReferenceMachine)
{
    MachineModel m = MachineModel::forSize({8, 5});
    CompiledKernel ck = compileKernel(workloads::convolveKernel(), m);
    EXPECT_GE(ck.ii, 1);
    EXPECT_GE(ck.stages, 1);
    EXPECT_GT(ck.aluOpsPerIteration, 0);
    EXPECT_GT(ck.aluOpsPerCycle(), 0.0);
}

TEST(KernelPerfTest, ThroughputBoundedByAluCount)
{
    for (int n : {2, 5, 10}) {
        MachineModel m = MachineModel::forSize({8, n});
        CompiledKernel ck =
            compileKernel(workloads::convolveKernel(), m);
        EXPECT_LE(ck.aluOpsPerCycle(), n + 1e-9) << "N=" << n;
    }
}

TEST(KernelPerfTest, MoreAlusNeverSlower)
{
    double prev = 0.0;
    for (int n : {2, 5, 10, 14}) {
        MachineModel m = MachineModel::forSize({8, n});
        CompiledKernel ck = compileKernel(workloads::fftKernel(), m);
        EXPECT_GE(ck.aluOpsPerCycle(), prev - 1e-9) << "N=" << n;
        prev = ck.aluOpsPerCycle();
    }
}

TEST(KernelPerfTest, LoopCyclesScaleWithIterations)
{
    MachineModel m = MachineModel::forSize({8, 5});
    CompiledKernel ck = compileKernel(workloads::noiseKernel(), m);
    int64_t t1 = ck.loopCycles(100);
    int64_t t2 = ck.loopCycles(200);
    // Steady state: doubling iterations roughly doubles time.
    EXPECT_GT(t2, t1);
    EXPECT_LT(static_cast<double>(t2), 2.2 * static_cast<double>(t1));
}

TEST(KernelPerfTest, ShortCallsUseCheapVariant)
{
    MachineModel m = MachineModel::forSize({128, 10});
    CompiledKernel ck = compileKernel(workloads::fftKernel(), m);
    // A 2-iteration call must not pay the full unrolled pipeline's
    // priming: it is bounded by the straight-line alternative.
    int64_t t = ck.loopCycles(2);
    EXPECT_LE(t, 2 * static_cast<int64_t>(ck.listLength));
}

TEST(KernelPerfTest, ZeroIterationsCostNothing)
{
    MachineModel m = MachineModel::forSize({8, 5});
    CompiledKernel ck = compileKernel(workloads::noiseKernel(), m);
    EXPECT_EQ(ck.loopCycles(0), 0);
}

TEST(KernelPerfTest, GopsAccountingUsesSubwordFactor)
{
    MachineModel m = MachineModel::forSize({8, 5});
    CompiledKernel conv = compileKernel(workloads::convolveKernel(), m);
    // convolve is a 16-bit kernel: GOPS ops are twice the ALU ops.
    EXPECT_DOUBLE_EQ(conv.gopsOpsPerIteration,
                     2.0 * conv.aluOpsPerIteration);
    CompiledKernel fft = compileKernel(workloads::fftKernel(), m);
    EXPECT_DOUBLE_EQ(fft.gopsOpsPerIteration,
                     1.0 * fft.aluOpsPerIteration);
}

// compileKernel skips an unroll factor whose MII bound cannot beat the
// best so far. Over every (kernel, machine) pair the figure suite
// compiles, schedule each factor instead and pick the winner by the
// same strict margin: the compiled kernel must be that schedule.
TEST(KernelPerfTest, UnrollPruningIsExactOverTheFigureSuite)
{
    struct Sched
    {
        int unroll = 0, ii = 0, stages = 0, length = 0;
    };
    bool saw_housegen_c128_n5 = false;
    for (const core::SuiteCompile &p : core::suiteCompiles()) {
        const kernel::Kernel &k = *p.kernel;
        MachineModel m = MachineModel::forSize(p.size);
        const int alu_ops = kernel::takeCensus(k).aluOps;
        Sched best, one;
        double best_rate = 0.0;
        int list_len = 0;
        for (int u : kUnrollFactors) {
            if (static_cast<int>(k.ops.size()) * u > kMaxUnrolledOps)
                continue;
            DepGraph g = buildDepGraph(unrollKernel(k, u), m);
            ModuloSchedule s = moduloSchedule(g, m);
            Sched cur{u, s.ii, s.stages, s.length};
            double rate = static_cast<double>(u) * alu_ops / s.ii;
            if (u == 1) {
                one = cur;
                list_len = std::max(1, listSchedule(g, m).length);
            }
            if (best.unroll == 0 || rate > best_rate + 1e-9) {
                best = cur;
                best_rate = rate;
            }
        }
        CompiledKernel ck = compileKernel(k, m);
        std::string where = k.name + " at C=" +
                            std::to_string(p.size.clusters) + " N=" +
                            std::to_string(p.size.alusPerCluster);
        EXPECT_EQ(ck.unroll, best.unroll) << where;
        EXPECT_EQ(ck.ii, best.ii) << where;
        EXPECT_EQ(ck.stages, best.stages) << where;
        EXPECT_EQ(ck.length, best.length) << where;
        EXPECT_EQ(ck.ii1, one.ii) << where;
        EXPECT_EQ(ck.stages1, one.stages) << where;
        EXPECT_EQ(ck.length1, one.length) << where;
        EXPECT_EQ(ck.listLength, list_len) << where;
        if (&k == &workloads::housegenKernel(128) &&
            p.size.clusters == 128 && p.size.alusPerCluster == 5)
            saw_housegen_c128_n5 = true;
    }
    EXPECT_TRUE(saw_housegen_c128_n5);
}

// Every field of the figure suite's 240 compiled kernels, in suite
// order. The scheduler's data structures may change for speed; this
// digest may not: a moved II, stage count, length or factor choice
// anywhere in the suite fails here.
TEST(KernelPerfTest, SuiteSchedulesMatchPinnedDigest)
{
    const std::vector<core::SuiteCompile> pairs = core::suiteCompiles();
    ASSERT_EQ(pairs.size(), 240u);
    Fnv f;
    for (const core::SuiteCompile &p : pairs) {
        const CompiledKernel ck =
            compileKernel(*p.kernel, MachineModel::forSize(p.size));
        forEachField(ck, [&](const char *, const auto &v) {
            if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                         double>)
                f.mix(std::bit_cast<uint64_t>(v));
            else
                f.mix(static_cast<uint64_t>(v));
        });
    }
    EXPECT_EQ(f.h, 0x0cf9d1e150d2060dull);
}

TEST(KernelPerfTest, UnexecutableKernelThrows)
{
    // A client's size can ask for this, so it is an exception the
    // evaluation service returns as an error, not an abort.
    KernelBuilder b("mulheavy");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto x = b.sbRead(in);
    b.sbWrite(out, b.imul(x, x));
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 1}); // no multiplier
    EXPECT_THROW(compileKernel(k, m), std::invalid_argument);
}

} // namespace
} // namespace sps::sched
