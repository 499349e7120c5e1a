#include "isa/opcode.h"

#include <gtest/gtest.h>

namespace sps::isa {
namespace {

TEST(LatencyTest, SimpleIntegerOpsAreShort)
{
    EXPECT_EQ(baseTiming(Opcode::IAdd).latency, 2);
    EXPECT_EQ(baseTiming(Opcode::IAnd).latency, 2);
    EXPECT_EQ(baseTiming(Opcode::Select).latency, 2);
}

TEST(LatencyTest, PipelinedFpOpsAreFourCycles)
{
    EXPECT_EQ(baseTiming(Opcode::FAdd).latency, 4);
    EXPECT_EQ(baseTiming(Opcode::FMul).latency, 4);
    EXPECT_EQ(baseTiming(Opcode::IMul).latency, 4);
    EXPECT_EQ(baseTiming(Opcode::FAdd).issueInterval, 1);
    EXPECT_EQ(baseTiming(Opcode::FMul).issueInterval, 1);
}

TEST(LatencyTest, DsqIsLongAndNotFullyPipelined)
{
    OpTiming t = baseTiming(Opcode::FDiv);
    EXPECT_EQ(t.latency, 16);
    EXPECT_GT(t.issueInterval, 1);
    EXPECT_EQ(baseTiming(Opcode::FSqrt).latency, 16);
}

TEST(LatencyTest, StreambufferReadSlowerThanWrite)
{
    EXPECT_GT(baseTiming(Opcode::SbRead).latency,
              baseTiming(Opcode::SbWrite).latency);
}

TEST(LatencyTest, PseudoOpsAreFree)
{
    EXPECT_EQ(baseTiming(Opcode::ConstInt).latency, 0);
    EXPECT_EQ(baseTiming(Opcode::Phi).latency, 0);
    EXPECT_EQ(baseTiming(Opcode::ClusterId).latency, 0);
}

TEST(LatencyTest, AllRealOpsFullyDefined)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        auto op = static_cast<Opcode>(i);
        OpTiming t = baseTiming(op);
        if (fuClassOf(op) == FuClass::None) {
            EXPECT_EQ(t.latency, 0);
        } else {
            EXPECT_GE(t.latency, 1);
            EXPECT_GE(t.issueInterval, 1);
            EXPECT_LE(t.issueInterval, t.latency);
        }
    }
}

} // namespace
} // namespace sps::isa
