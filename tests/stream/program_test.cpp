#include "stream/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "kernel/builder.h"
#include "srf/srf.h"
#include "workloads/suite.h"

namespace sps::stream {
namespace {

kernel::Kernel
copyKernel()
{
    kernel::KernelBuilder b("copy");
    int in = b.inStream("in");
    int out = b.outStream("out");
    b.sbWrite(out, b.sbRead(in));
    return b.build();
}

TEST(ProgramTest, DeclareAndLoadStore)
{
    StreamProgram p("app");
    int s = p.declareStream("data", 2, 100, true);
    p.load(s);
    p.store(s);
    ASSERT_EQ(p.ops().size(), 2u);
    EXPECT_EQ(p.ops()[0].kind, OpKind::Load);
    EXPECT_EQ(p.ops()[0].records, 100);
    EXPECT_EQ(p.ops()[1].kind, OpKind::Store);
    EXPECT_EQ(p.streams()[s].words(), 200);
}

TEST(ProgramTest, Packed16HalvesMemoryWords)
{
    StreamProgram p("app");
    int s = p.declareStream("px", 8, 100, true, true);
    EXPECT_EQ(p.streams()[s].words(), 800);
    EXPECT_EQ(p.streams()[s].memWords(), 400);
    int f = p.declareStream("fp", 8, 100, true, false);
    EXPECT_EQ(p.streams()[f].memWords(), 800);
}

TEST(ProgramTest, KernelCallInfersDriverLength)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 64, true);
    int out = p.declareStream("out", 1, 64);
    p.callKernel(&k, {in, out});
    ASSERT_EQ(p.ops().size(), 1u);
    EXPECT_EQ(p.ops()[0].records, 64);
    EXPECT_EQ(p.totalKernelRecords(), 64);
}

TEST(ProgramTest, DriverOverrideRespected)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 64, true);
    int out = p.declareStream("out", 1, 64);
    p.callKernel(&k, {in, out}, 16);
    EXPECT_EQ(p.ops()[0].records, 16);
}

TEST(ProgramTest, MemLayoutAssignsDisjointBases)
{
    StreamProgram p("app");
    int a = p.declareStream("a", 2, 100, true);
    int b = p.declareStream("b", 1, 50, true);
    EXPECT_EQ(p.streams()[a].memBaseWord, 0);
    EXPECT_EQ(p.streams()[a].memFootprintWords(), 200);
    EXPECT_EQ(p.streams()[b].memBaseWord, 200);
    p.load(a);
    p.load(b);
    EXPECT_EQ(p.ops()[0].memBase, 0);
    EXPECT_EQ(p.ops()[0].memRecordWords, 2);
    EXPECT_EQ(p.ops()[1].memBase, 200);
    EXPECT_EQ(p.ops()[1].memStride, 0);
}

TEST(ProgramTest, SetMemLayoutCarriedOntoOps)
{
    StreamProgram p("app");
    int a = p.declareStream("a", 1, 64, true);
    int b = p.declareStream("b", 1, 64, true);
    // A stride wider than the record grows the footprint, so the
    // stream is re-based past everything already laid out.
    p.setMemLayout(a, 8);
    EXPECT_EQ(p.streams()[a].memFootprintWords(), 63 * 8 + 1);
    EXPECT_GE(p.streams()[a].memBaseWord,
              p.streams()[b].memBaseWord + 64);
    p.load(a);
    EXPECT_EQ(p.ops()[0].memStride, 8);
    EXPECT_EQ(p.ops()[0].memBase, p.streams()[a].memBaseWord);
}

TEST(ProgramTest, Packed16MemRecordAndFootprint)
{
    StreamProgram p("app");
    int s = p.declareStream("px", 8, 100, true, true);
    EXPECT_EQ(p.streams()[s].memRecordWords(), 4);
    EXPECT_EQ(p.streams()[s].memFootprintWords(), 400);
    p.load(s);
    EXPECT_EQ(p.ops()[0].memRecordWords, 4);
}

TEST(ProgramTest, KernelsInternedInFirstCallOrder)
{
    static kernel::Kernel a = copyKernel();
    static kernel::Kernel b = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 64, true);
    int out = p.declareStream("out", 1, 64);
    p.load(in);
    p.callKernel(&b, {in, out});
    p.callKernel(&a, {in, out});
    p.callKernel(&b, {in, out});
    EXPECT_EQ(p.kernels(),
              (std::vector<const kernel::Kernel *>{&b, &a}));
    EXPECT_EQ(p.ops()[0].kernelSlot, -1);
    EXPECT_EQ(p.ops()[1].kernelSlot, 0);
    EXPECT_EQ(p.ops()[2].kernelSlot, 1);
    EXPECT_EQ(p.ops()[3].kernelSlot, 0);
}

TEST(ProgramTest, LabelsDeriveFromKindAndName)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("input_stream_long", 1, 64, true);
    int out = p.declareStream("out", 1, 64);
    p.load(in);
    p.callKernel(&k, {in, out});
    p.store(out);
    EXPECT_EQ(p.label(p.ops()[0]), "load input_stream_long");
    EXPECT_EQ(p.label(p.ops()[1]), "copy");
    EXPECT_EQ(p.label(p.ops()[2]), "store out");
    EXPECT_TRUE(p.args(p.ops()[0]).empty());

    // Every op of every app at the pinned sizes: the label the
    // builders wrote before labels were derived.
    const auto apps = workloads::appSuite();
    for (const workloads::AppEntry &app : apps) {
        for (vlsi::MachineSize size : {vlsi::MachineSize{8, 5},
                                       vlsi::MachineSize{128, 10}}) {
            StreamProgram prog = app.build(
                size, srf::SrfModel::forMachine(size,
                                                vlsi::Params::imagine()));
            for (const StreamOp &op : prog.ops()) {
                std::string want =
                    op.kind == OpKind::Kernel
                        ? op.k->name
                        : (op.kind == OpKind::Load ? "load " : "store ") +
                              prog.streams()[static_cast<size_t>(op.stream)]
                                  .name;
                ASSERT_EQ(prog.label(op), want)
                    << app.name << " C=" << size.clusters
                    << " N=" << size.alusPerCluster;
            }
        }
    }
}

TEST(ProgramTest, ArgsSurviveLaterCalls)
{
    // The argument array grows with every call; an op's args(op) is
    // read through its offset, so the first call's arguments read the
    // same after thousands of later calls have moved the array, even
    // when those calls pass an earlier op's args(op) back in.
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 64, true);
    int out = p.declareStream("out", 1, 64);
    p.callKernel(&k, {in, out});
    std::vector<std::vector<int>> want{{in, out}};
    for (int i = 0; i < 5000; ++i) {
        if (i % 2 == 0) {
            int a = p.declareStream("a" + std::to_string(i), 1, 64);
            p.callKernel(&k, {a, out});
            want.push_back({a, out});
        } else {
            p.callKernel(&k, p.args(p.ops()[0]));
            want.push_back({in, out});
        }
    }
    ASSERT_EQ(p.ops().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const std::span<const int> args = p.args(p.ops()[i]);
        EXPECT_EQ(std::vector<int>(args.begin(), args.end()), want[i])
            << "op " << i;
    }
}

// The program fingerprint keys every simulation result in a result
// store: changing its value orphans every existing store, so it must
// be deliberate.
TEST(ProgramTest, AppFingerprintsArePinned)
{
    struct Pin
    {
        const char *app;
        vlsi::MachineSize size;
        uint64_t fingerprint;
    };
    const Pin pins[] = {
        {"RENDER", {8, 5}, 0x932c87615e3f76d7ull},
        {"DEPTH", {8, 5}, 0x3cda4ef2d1b52c5bull},
        {"CONV", {8, 5}, 0xc09e0fcd0fccb0a1ull},
        {"QRD", {8, 5}, 0x43a2da18954f5988ull},
        {"FFT1K", {8, 5}, 0x7db373521168489full},
        {"FFT4K", {8, 5}, 0xf6f9470f3c01ecafull},
        {"RENDER", {128, 10}, 0x55ba310334d36ab8ull},
        {"DEPTH", {128, 10}, 0x5a8b8ac972ff5150ull},
        {"CONV", {128, 10}, 0x85413eeefec36b82ull},
        {"QRD", {128, 10}, 0xff19b6b3d818d4f9ull},
        {"FFT1K", {128, 10}, 0x7db373521168489full},
        {"FFT4K", {128, 10}, 0x6189c45057155613ull},
    };
    const auto apps = workloads::appSuite();
    for (const Pin &pin : pins) {
        auto app = std::find_if(apps.begin(), apps.end(),
                                [&](const workloads::AppEntry &e) {
                                    return e.name == pin.app;
                                });
        ASSERT_NE(app, apps.end()) << pin.app;
        StreamProgram prog = app->build(
            pin.size,
            srf::SrfModel::forMachine(pin.size, vlsi::Params::imagine()));
        EXPECT_EQ(programFingerprint(prog), pin.fingerprint)
            << pin.app << " C=" << pin.size.clusters
            << " N=" << pin.size.alusPerCluster;
    }
}

TEST(ProgramDeathTest, RecordWidthMismatchPanics)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 2, 64, true);
    int out = p.declareStream("out", 1, 64);
    EXPECT_DEATH(p.callKernel(&k, {in, out}), "record width");
}

TEST(ProgramDeathTest, LoadOfSrfStreamPanics)
{
    StreamProgram p("app");
    int s = p.declareStream("tmp", 1, 10, false);
    EXPECT_DEATH(p.load(s), "non-memory");
}

TEST(ProgramDeathTest, WrongArgCountPanics)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 64, true);
    EXPECT_DEATH(p.callKernel(&k, {in}), "takes");
}

} // namespace
} // namespace sps::stream
