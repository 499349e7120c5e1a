#include "sched/modulo.h"

#include <map>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "kernel/builder.h"
#include "sched/mii.h"
#include "random_kernel.h"

namespace sps::sched {
namespace {

using kernel::Kernel;
using kernel::KernelBuilder;

/** Check that no resource class is oversubscribed in any MRT column. */
void
checkResources(const DepGraph &g, const MachineModel &m,
               const ModuloSchedule &s)
{
    std::map<std::pair<int, int>, int> usage; // (class, column)
    for (int i = 0; i < g.nodeCount(); ++i) {
        const DepNode &n = g.nodes[i];
        for (int j = 0; j < n.issueInterval; ++j) {
            int col = (s.issueCycle[i] + j) % s.ii;
            ++usage[{static_cast<int>(n.cls), col}];
        }
    }
    for (const auto &[key, count] : usage) {
        auto cls = static_cast<isa::FuClass>(key.first);
        EXPECT_LE(count, m.unitCount(cls))
            << "class " << key.first << " column " << key.second;
    }
}

Kernel
accumulatorKernel()
{
    KernelBuilder b("acc");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(isa::Word::fromFloat(0.f), 1);
    auto sum = b.fadd(p, b.sbRead(in));
    b.setPhiSource(p, sum);
    b.sbWrite(out, sum);
    return b.build();
}

TEST(ModuloTest, SimpleKernelAchievesMinII)
{
    KernelBuilder b("k");
    int in = b.inStream("in");
    int out = b.outStream("out");
    b.sbWrite(out, b.iadd(b.sbRead(in), b.constI(1)));
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    ModuloSchedule s = moduloSchedule(g, m);
    EXPECT_TRUE(s.ok);
    EXPECT_EQ(s.ii, minII(g, m));
    checkResources(g, m, s);
}

TEST(ModuloTest, RecurrenceBoundRespected)
{
    Kernel k = accumulatorKernel();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    ModuloSchedule s = moduloSchedule(g, m);
    EXPECT_GE(s.ii, recMii(g));
    verifyModuloSchedule(g, s);
    checkResources(g, m, s);
}

TEST(ModuloTest, StagesAndLengthConsistent)
{
    Kernel k = accumulatorKernel();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    ModuloSchedule s = moduloSchedule(g, m);
    int max_issue = 0;
    for (int i = 0; i < g.nodeCount(); ++i)
        max_issue = std::max(max_issue, s.issueCycle[i]);
    EXPECT_EQ(s.stages, max_issue / s.ii + 1);
    EXPECT_GE(s.length, max_issue);
}

TEST(ModuloTest, EmptyGraphSchedules)
{
    DepGraph g;
    MachineModel m = MachineModel::forSize({8, 5});
    ModuloSchedule s = moduloSchedule(g, m);
    EXPECT_TRUE(s.ok);
    EXPECT_EQ(s.ii, 1);
}

TEST(ModuloTest, ResourcePressureRaisesII)
{
    // 12 multiplies on 2 multipliers: II >= 6.
    KernelBuilder b("muls");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto x = b.sbRead(in);
    auto v = x;
    for (int i = 0; i < 12; ++i)
        v = b.imul(v, x);
    b.sbWrite(out, v);
    Kernel k = b.build();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    ModuloSchedule s = moduloSchedule(g, m);
    EXPECT_GE(s.ii, 6);
    checkResources(g, m, s);
    verifyModuloSchedule(g, s);
}

TEST(ModuloTest, ExhaustedIiSearchThrows)
{
    // A search limit below the MII leaves no II to try: a client's
    // request can reach this, so it is an exception the evaluation
    // service returns as an error, not an abort.
    Kernel k = accumulatorKernel();
    MachineModel m = MachineModel::forSize({8, 5});
    DepGraph g = buildDepGraph(k, m);
    const int mii = minII(g, m);
    ASSERT_GE(mii, 2);
    try {
        moduloSchedule(g, m, mii - 1);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "modulo scheduling failed up to II=" +
                      std::to_string(mii - 1)),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Property test: random dataflow kernels with accumulators schedule
 * successfully on every machine, every dependence holds, and no
 * resource is oversubscribed.
 */
class RandomKernelModuloTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomKernelModuloTest, ScheduleIsValid)
{
    Kernel k = randomKernel(GetParam());
    for (vlsi::MachineSize size : kRandomKernelSizes) {
        MachineModel m = MachineModel::forSize(size);
        DepGraph g = buildDepGraph(k, m);
        ModuloSchedule s = moduloSchedule(g, m);
        ASSERT_TRUE(s.ok);
        EXPECT_GE(s.ii, minII(g, m));
        verifyModuloSchedule(g, s);
        checkResources(g, m, s);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelModuloTest,
                         ::testing::Range(0, kRandomKernelSeeds));

} // namespace
} // namespace sps::sched
