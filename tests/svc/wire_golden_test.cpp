// Golden pins of the persisted and wire formats. The round-trip suites
// only prove a build agrees with itself; these values were captured
// from the hand-written codecs the field tables replaced, so a
// reordered or retyped field table -- which would silently re-key
// every persisted store entry or break every older client -- fails
// here instead. The whole-frame and whole-entry pins also cover the
// 32-byte headers and their checksum, which no round trip can see
// change. Any intentional change to one of these values must come
// with a kStoreSchemaVersion or kProtocolVersion bump.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/design.h"
#include "core/experiments.h"
#include "sched/kernel_perf.h"
#include "sched/schedule_cache.h"
#include "store/codec.h"
#include "store/result_store.h"
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
digest(const std::vector<uint8_t> &bytes)
{
    return hex(store::fnv1aBytes(bytes.data(), bytes.size()));
}

std::string
digest(const store::ByteWriter &w)
{
    return digest(w.bytes());
}

/** Lower-case hex of the `n` bytes at `data`. */
std::string
hexBytes(const uint8_t *data, size_t n)
{
    std::string out;
    char buf[3];
    for (size_t i = 0; i < n; ++i) {
        std::snprintf(buf, sizeof buf, "%02x", data[i]);
        out += buf;
    }
    return out;
}

/** DEPTH's encoded result at the baseline size (C=8, N=5). */
std::vector<uint8_t>
depthBaselineResult()
{
    core::StreamProcessorDesign d(core::kBaseline);
    sim::StreamProcessor proc = d.makeProcessor();
    stream::StreamProgram prog =
        workloads::buildDepth(core::kBaseline, proc.srf());
    store::ByteWriter w;
    store::encodeSimResult(proc.run(prog), &w);
    return w.bytes();
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
    EXPECT_EQ(digest(depthBaselineResult()), "0xb4ee0d4ab08fa998");
}

/** The whole EvalResult frame a daemon sends for SimResultBytes'
 *  payload: its 32-byte header, checksum included, and a digest of
 *  header and payload together. */
TEST(WireGoldenTest, EvalResultFrameBytes)
{
    std::vector<uint8_t> frame;
    encodeFrame(FrameKind::EvalResult, depthBaselineResult(), &frame);
    ASSERT_GT(frame.size(), kFrameHeaderBytes);
    EXPECT_EQ(hexBytes(frame.data(), kFrameHeaderBytes),
              // magic "SPSP", version 5, kind 2, reserved
              "53505350050000000200000000000000"
              // payload length 71,092, then headerChecksum
              "b4150100000000000658d0dc9ad67312");
    EXPECT_EQ(digest(frame), "0xd531378842ac98b2");
}

/** One whole store entry file, header and payload, for a fixed key
 *  and a 39-byte payload (one checksum stripe and a 7-byte tail). */
TEST(WireGoldenTest, StoreEntryBytes)
{
    const std::string root =
        ::testing::TempDir() + "sps_wire_golden_store";
    std::filesystem::remove_all(root);
    store::ResultStore rs(root);
    store::Key key{store::Kind::SimResult, 0x0123456789abcdefull,
                   0xfedcba9876543210ull, 0x0f1e2d3c4b5a6978ull};
    const std::string text = "Nobody inspects the spammish repetition";
    ASSERT_TRUE(rs.put(key, std::vector<uint8_t>(text.begin(), text.end())));
    EXPECT_EQ(std::filesystem::path(rs.entryPath(key)).filename(),
              "0123456789abcdef-fedcba9876543210-0f1e2d3c4b5a6978.bin");
    std::ifstream in(rs.entryPath(key), std::ios::binary);
    const std::vector<uint8_t> entry(std::istreambuf_iterator<char>(in),
                                     {});
    EXPECT_EQ(hexBytes(entry.data(), entry.size()),
              // magic "SPSR", schema 2, kind 2, reserved, length 39
              "535053520200000002000000000000002700000000000000"
              // headerChecksum
              "2d4b437b0c06f617"
              // the payload
              "4e6f626f647920696e73706563747320746865207370616d6d"
              "6973682072657065746974696f6e");
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace sps::svc
