// Golden pins of the persisted and wire formats. The round-trip suites
// only prove a build agrees with itself; these values were captured
// from the hand-written codecs the field tables replaced, so a
// reordered or retyped field table -- which would silently re-key
// every persisted store entry or break every older client -- fails
// here instead. Any intentional change to one of these values must
// come with a kStoreSchemaVersion or kProtocolVersion bump.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/design.h"
#include "core/experiments.h"
#include "sched/kernel_perf.h"
#include "sched/schedule_cache.h"
#include "store/codec.h"
#include "svc/eval_service.h"
#include "svc/protocol.h"
#include "workloads/suite.h"

namespace sps::svc {
namespace {

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
digest(const store::ByteWriter &w)
{
    return hex(store::fnv1aBytes(w.bytes().data(), w.bytes().size()));
}

/** Sets an int, a negative int, a -0.0 double, a field two structs
 *  deep, and the technology name. */
sim::SimConfig
overrideConfig()
{
    sim::SimConfig cfg;
    cfg.hostIssueCycles = 3;
    cfg.ucConfig.pipeFillCycles = -2;
    cfg.params.tMux = -0.0;
    cfg.memConfig.timing.banks = 4;
    cfg.tech.name = "7nm";
    return cfg;
}

TEST(WireGoldenTest, SimConfigHash)
{
    EXPECT_EQ(hex(simConfigHash(sim::SimConfig{})), "0x826eea8c2e5f1c80");
    EXPECT_EQ(hex(simConfigHash(overrideConfig())), "0xe4c2980b6626db8b");
}

/** The options word of every persisted schedule's store key. */
TEST(WireGoldenTest, ScheduleOptionsHash)
{
    EXPECT_EQ(hex(sched::compileOptionsHash()), "0x065bf7812259d3f1");
}

TEST(WireGoldenTest, EvalRequestBytes)
{
    store::ByteWriter w;
    encodeEvalRequest(EvalPoint{"DEPTH", {16, 5}, overrideConfig()}, &w);
    EXPECT_EQ(digest(w), "0x6dafbde49b6ec191");
}

TEST(WireGoldenTest, CompiledKernelBytes)
{
    const std::pair<const char *, const char *> want[] = {
        {"blocksad", "0x4f6fa9a7fae3a700"},
        {"convolve", "0xc72aba418e69af8d"},
        {"update", "0x010a67ca96e62f65"},
        {"fft", "0x0b9232517cb8df5a"},
        {"noise", "0x4c68911197049e0c"},
        {"irast", "0xccdb1a42ca0e91f1"},
    };
    std::vector<workloads::KernelEntry> suite = workloads::kernelSuite();
    ASSERT_EQ(suite.size(), std::size(want));
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    for (size_t i = 0; i < suite.size(); ++i) {
        store::ByteWriter w;
        store::encodeCompiledKernel(
            sched::compileKernel(*suite[i].kernel, m), &w);
        EXPECT_EQ(suite[i].name, want[i].first);
        EXPECT_EQ(digest(w), want[i].second) << suite[i].name;
    }
}

TEST(WireGoldenTest, SimResultBytes)
{
    core::StreamProcessorDesign d(core::kBaseline);
    sim::StreamProcessor proc = d.makeProcessor();
    stream::StreamProgram prog =
        workloads::buildDepth(core::kBaseline, proc.srf());
    store::ByteWriter w;
    store::encodeSimResult(proc.run(prog), &w);
    EXPECT_EQ(digest(w), "0xb4ee0d4ab08fa998");
}

} // namespace
} // namespace sps::svc
