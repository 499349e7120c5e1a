#include "sched/mii.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "kernel/builder.h"
#include "random_kernel.h"

namespace sps::sched {
namespace {

using kernel::Kernel;
using kernel::KernelBuilder;

DepGraph
graphOf(const Kernel &k, const MachineModel &m)
{
    return buildDepGraph(k, m);
}

TEST(MiiTest, ResMiiAdderBound)
{
    // Nine adder-class ops on three adders: ResMII = 3.
    KernelBuilder b("adds");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto x = b.sbRead(in);
    auto v = x;
    for (int i = 0; i < 9; ++i)
        v = b.iadd(v, x);
    b.sbWrite(out, v);
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    EXPECT_EQ(resMii(g, m), 3);
}

TEST(MiiTest, ResMiiAccountsForNonPipelinedOps)
{
    // One divide at N=5 runs on a multiplier, occupying it for its
    // full iterative latency.
    KernelBuilder b("div");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto x = b.sbRead(in);
    b.sbWrite(out, b.fdiv(x, x));
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    int ii = resMii(g, m);
    EXPECT_GE(ii, m.timing(isa::Opcode::FDiv).issueInterval / 2);
}

TEST(MiiTest, RecMiiOneWithoutRecurrence)
{
    KernelBuilder b("nodep");
    int in = b.inStream("in");
    int out = b.outStream("out");
    b.sbWrite(out, b.iadd(b.sbRead(in), b.constI(1)));
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    EXPECT_EQ(recMii(g), 1);
}

TEST(MiiTest, RecMiiEqualsAccumulatorLatency)
{
    // acc = acc + x: the fadd's 4-cycle latency bounds II.
    KernelBuilder b("acc");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(isa::Word::fromFloat(0.f), 1);
    auto sum = b.fadd(p, b.sbRead(in));
    b.setPhiSource(p, sum);
    b.sbWrite(out, sum);
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    EXPECT_EQ(recMii(g), m.timing(isa::Opcode::FAdd).latency);
}

TEST(MiiTest, RecMiiScalesInverselyWithDistance)
{
    // Distance-2 recurrence: ceil(4 / 2) = 2.
    KernelBuilder b("acc2");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(isa::Word::fromFloat(0.f), 2);
    auto sum = b.fadd(p, b.sbRead(in));
    b.setPhiSource(p, sum);
    b.sbWrite(out, sum);
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    EXPECT_EQ(recMii(g), 2);
}

TEST(MiiTest, RecMiiCoversMultiOpCycles)
{
    // acc = (acc * 2) + x: mul (4) + add (4) around one back edge.
    KernelBuilder b("macc");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(isa::Word::fromFloat(0.f), 1);
    auto scaled = b.fmul(p, b.constF(2.0f));
    auto sum = b.fadd(scaled, b.sbRead(in));
    b.setPhiSource(p, sum);
    b.sbWrite(out, sum);
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    EXPECT_EQ(recMii(g), 8);
}

TEST(MiiTest, MinIiIsMaxOfBothBounds)
{
    KernelBuilder b("both");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(isa::Word::fromFloat(0.f), 1);
    auto sum = b.fadd(p, b.sbRead(in));
    b.setPhiSource(p, sum);
    b.sbWrite(out, sum);
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = graphOf(b.build(), m);
    EXPECT_EQ(minII(g, m), std::max(resMii(g, m), recMii(g)));
}

TEST(MiiTest, MinIiMatchesMaxOfBoundsOnRandomKernels)
{
    // minII checks the recurrences once at ResMII and searches only
    // above it; it must equal max(ResMII, RecMII) both where the
    // recurrences fit at ResMII and, with latencies stretched, where
    // they do not.
    int searched = 0;
    for (int seed = 0; seed < kRandomKernelSeeds; ++seed) {
        const Kernel k = randomKernel(seed);
        for (vlsi::MachineSize size : kRandomKernelSizes) {
            MachineModel m = MachineModel::forSize(size);
            for (int stretch : {1, 4, 16}) {
                DepGraph g = graphOf(k, m);
                for (DepEdge &e : g.edges)
                    e.latency *= stretch;
                const int rec = recMii(g);
                EXPECT_EQ(minII(g, m), std::max(resMii(g, m), rec))
                    << "seed " << seed << " C=" << size.clusters
                    << " N=" << size.alusPerCluster << " x" << stretch;
                searched += rec > resMii(g, m) ? 1 : 0;
            }
        }
    }
    EXPECT_GT(searched, 0);
}

TEST(MiiTest, RecurrenceBeyondSearchCapThrows)
{
    // A two-node recurrence of 2^21 + 1 cycles over one iteration
    // fits no II up to the search cap of 2^20: a request's params can
    // stretch latencies that far, so it is an exception the service
    // returns as an error, not an abort.
    DepGraph g;
    g.nodes.resize(2);
    g.edges = {DepEdge{0, 1, 1 << 21, 0}, DepEdge{1, 0, 1, 1}};
    MachineModel m = MachineModel::forSize({8, 5});
    for (int call = 0; call < 2; ++call) {
        try {
            if (call == 0)
                recMii(g);
            else
                minII(g, m);
            FAIL() << "expected std::runtime_error";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "recurrence infeasible even at II=1048576");
        }
    }
}

} // namespace
} // namespace sps::sched
