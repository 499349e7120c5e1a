#include "sched/depgraph.h"

#include <gtest/gtest.h>

#include "kernel/builder.h"

namespace sps::sched {
namespace {

using kernel::Kernel;
using kernel::KernelBuilder;

TEST(DepGraphTest, PseudoOpsAreElided)
{
    KernelBuilder b("k");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto x = b.sbRead(in);
    auto c = b.constI(5);      // pseudo, no node
    b.sbWrite(out, b.iadd(x, c));
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    // sbRead + iadd + sbWrite = 3 nodes; const elided.
    EXPECT_EQ(g.nodeCount(), 3);
}

TEST(DepGraphTest, DataEdgesCarryProducerLatency)
{
    KernelBuilder b("k");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto x = b.sbRead(in);
    auto y = b.fadd(x, x);
    b.sbWrite(out, y);
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    bool found = false;
    for (const DepEdge &e : g.edges) {
        if (g.nodes[e.from].code == isa::Opcode::FAdd &&
            g.nodes[e.to].code == isa::Opcode::SbWrite) {
            EXPECT_EQ(e.latency, m.timing(isa::Opcode::FAdd).latency);
            EXPECT_EQ(e.distance, 0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DepGraphTest, PhiBecomesLoopCarriedEdge)
{
    KernelBuilder b("acc");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(isa::Word::fromInt(0), 1);
    auto sum = b.iadd(p, b.sbRead(in));
    b.setPhiSource(p, sum);
    b.sbWrite(out, sum);
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    // The accumulator must appear as a distance-1 self edge on iadd.
    bool found = false;
    for (const DepEdge &e : g.edges) {
        if (e.from == e.to && e.distance == 1 &&
            g.nodes[e.from].code == isa::Opcode::IAdd)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(DepGraphTest, PhiDistanceAccumulatesThroughChains)
{
    KernelBuilder b("acc2");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p1 = b.phi(isa::Word::fromInt(0), 2);
    auto sum = b.iadd(p1, b.sbRead(in));
    b.setPhiSource(p1, sum);
    b.sbWrite(out, sum);
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    bool found = false;
    for (const DepEdge &e : g.edges)
        if (e.from == e.to && e.distance == 2)
            found = true;
    EXPECT_TRUE(found);
}

TEST(DepGraphTest, SpWriteToReadTokenUsesWriteLatency)
{
    KernelBuilder b("sp");
    int in = b.inStream("in");
    int out = b.outStream("out");
    b.scratchpad(2);
    auto a = b.constI(0);
    b.spWrite(a, b.sbRead(in));
    b.sbWrite(out, b.spRead(a));
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    bool found = false;
    for (const DepEdge &e : g.edges) {
        if (g.nodes[e.from].code == isa::Opcode::SpWrite &&
            g.nodes[e.to].code == isa::Opcode::SpRead) {
            EXPECT_EQ(e.latency,
                      m.timing(isa::Opcode::SpWrite).latency);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DepGraphTest, AdjacencyConsistent)
{
    KernelBuilder b("k");
    int in = b.inStream("in", 3);
    int out = b.outStream("out");
    auto x = b.sbRead(in, 0);
    auto y = b.sbRead(in, 1);
    auto z = b.sbRead(in, 2);
    b.sbWrite(out, b.iadd(b.imul(x, y), z));
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    ASSERT_EQ(g.succ.size(), g.nodes.size());
    ASSERT_EQ(g.pred.size(), g.nodes.size());
    size_t succ_total = 0, pred_total = 0;
    for (size_t i = 0; i < g.nodes.size(); ++i) {
        for (int e : g.succ[i])
            EXPECT_EQ(g.edges[static_cast<size_t>(e)].from,
                      static_cast<int>(i));
        for (int e : g.pred[i])
            EXPECT_EQ(g.edges[static_cast<size_t>(e)].to,
                      static_cast<int>(i));
        succ_total += g.succ[i].size();
        pred_total += g.pred[i].size();
    }
    EXPECT_EQ(succ_total, g.edges.size());
    EXPECT_EQ(pred_total, g.edges.size());
}

} // namespace
} // namespace sps::sched
