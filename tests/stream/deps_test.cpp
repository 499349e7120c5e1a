#include "stream/deps.h"

#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "kernel/builder.h"
#include "sim/processor.h"
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

/** Two inputs, two outputs. */
kernel::Kernel
mixKernel()
{
    kernel::KernelBuilder b("mix");
    int x = b.inStream("x");
    int y = b.inStream("y");
    int sum = b.outStream("sum");
    int diff = b.outStream("diff");
    kernel::ValueId vx = b.sbRead(x);
    kernel::ValueId vy = b.sbRead(y);
    b.sbWrite(sum, b.iadd(vx, vy));
    b.sbWrite(diff, b.isub(vx, vy));
    return b.build();
}

/** One op's list, as a vector so that EXPECT_EQ prints it. */
std::vector<int>
list(std::span<const int> s)
{
    return {s.begin(), s.end()};
}

/** The four per-op lists, one vector per op. */
struct NestedDeps
{
    std::vector<std::vector<int>> deps, lastUseOf, reads, writes;
};

/**
 * The dependence analysis as it was written before the lists were
 * flat -- a std::set per op and a vector of readers per stream -- kept
 * as the oracle the flat lists are compared against.
 */
NestedDeps
setOracle(const StreamProgram &prog)
{
    const auto &ops = prog.ops();
    const int n_streams = static_cast<int>(prog.streams().size());
    NestedDeps out;
    out.deps.resize(ops.size());
    out.lastUseOf.resize(ops.size());
    out.reads.resize(ops.size());
    out.writes.resize(ops.size());

    for (size_t i = 0; i < ops.size(); ++i) {
        const StreamOp &op = ops[i];
        switch (op.kind) {
          case OpKind::Load:
            out.writes[i].push_back(op.stream);
            break;
          case OpKind::Store:
            out.reads[i].push_back(op.stream);
            break;
          case OpKind::Kernel: {
            const std::span<const int> args = prog.args(op);
            for (size_t p = 0; p < args.size(); ++p) {
                if (op.k->streams[p].dir == kernel::PortDir::In)
                    out.reads[i].push_back(args[p]);
                else
                    out.writes[i].push_back(args[p]);
            }
            break;
          }
        }
    }

    std::vector<int> last_writer(static_cast<size_t>(n_streams), -1);
    std::vector<std::vector<int>> readers_since(
        static_cast<size_t>(n_streams));
    for (size_t i = 0; i < ops.size(); ++i) {
        std::set<int> d;
        for (int s : out.reads[i]) {
            if (last_writer[static_cast<size_t>(s)] >= 0)
                d.insert(last_writer[static_cast<size_t>(s)]);
            readers_since[static_cast<size_t>(s)].push_back(
                static_cast<int>(i));
        }
        for (int s : out.writes[i]) {
            if (last_writer[static_cast<size_t>(s)] >= 0)
                d.insert(last_writer[static_cast<size_t>(s)]);
            for (int r : readers_since[static_cast<size_t>(s)])
                d.insert(r);
            last_writer[static_cast<size_t>(s)] = static_cast<int>(i);
            readers_since[static_cast<size_t>(s)].clear();
        }
        d.erase(static_cast<int>(i));
        out.deps[i].assign(d.begin(), d.end());
    }

    std::vector<int> last_use(static_cast<size_t>(n_streams), -1);
    for (size_t i = 0; i < ops.size(); ++i) {
        for (int s : out.reads[i])
            last_use[static_cast<size_t>(s)] = static_cast<int>(i);
        for (int s : out.writes[i])
            last_use[static_cast<size_t>(s)] = static_cast<int>(i);
    }
    for (int s = 0; s < n_streams; ++s) {
        if (last_use[static_cast<size_t>(s)] >= 0)
            out.lastUseOf[static_cast<size_t>(
                              last_use[static_cast<size_t>(s)])]
                .push_back(s);
    }
    return out;
}

/** All four of analyzeDeps's lists equal the oracle's, op by op. */
void
expectMatchesOracle(const StreamProgram &prog, const std::string &what)
{
    const ProgramDeps d = analyzeDeps(prog);
    const NestedDeps o = setOracle(prog);
    const size_t n = prog.ops().size();
    ASSERT_EQ(d.deps.size(), n) << what;
    ASSERT_EQ(d.lastUseOf.size(), n) << what;
    ASSERT_EQ(d.reads.size(), n) << what;
    ASSERT_EQ(d.writes.size(), n) << what;
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(list(d.deps[i]), o.deps[i]) << what << " op " << i;
        EXPECT_EQ(list(d.lastUseOf[i]), o.lastUseOf[i])
            << what << " op " << i;
        EXPECT_EQ(list(d.reads[i]), o.reads[i]) << what << " op " << i;
        EXPECT_EQ(list(d.writes[i]), o.writes[i]) << what << " op " << i;
    }
}

TEST(DepsTest, KernelWaitsForItsLoad)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 8, true);
    int out = p.declareStream("out", 1, 8);
    p.load(in);             // op 0
    p.callKernel(&k, {in, out}); // op 1
    ProgramDeps d = analyzeDeps(p);
    EXPECT_EQ(list(d.deps[1]), (std::vector<int>{0}));
}

TEST(DepsTest, IndependentLoadsHaveNoDeps)
{
    StreamProgram p("app");
    int a = p.declareStream("a", 1, 8, true);
    int b = p.declareStream("b", 1, 8, true);
    p.load(a);
    p.load(b);
    ProgramDeps d = analyzeDeps(p);
    EXPECT_TRUE(d.deps[0].empty());
    EXPECT_TRUE(d.deps[1].empty());
}

TEST(DepsTest, StoreWaitsForProducer)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 8, true);
    int out = p.declareStream("out", 1, 8);
    p.load(in);
    p.callKernel(&k, {in, out});
    p.store(out);
    ProgramDeps d = analyzeDeps(p);
    EXPECT_EQ(list(d.deps[2]), (std::vector<int>{1}));
}

TEST(DepsTest, WriteAfterReadOrdered)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 8, true);
    int out = p.declareStream("out", 1, 8);
    p.load(in);                  // 0: writes in
    p.callKernel(&k, {in, out}); // 1: reads in
    p.load(in);                  // 2: WAR on 1, WAW on 0
    ProgramDeps d = analyzeDeps(p);
    EXPECT_EQ(list(d.deps[2]), (std::vector<int>{0, 1}));
}

TEST(DepsTest, ChainOfKernelsSerializedByStreams)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int a = p.declareStream("a", 1, 8, true);
    int b = p.declareStream("b", 1, 8);
    int c = p.declareStream("c", 1, 8);
    p.load(a);
    p.callKernel(&k, {a, b});
    p.callKernel(&k, {b, c});
    ProgramDeps d = analyzeDeps(p);
    EXPECT_EQ(list(d.deps[2]), (std::vector<int>{1}));
}

TEST(DepsTest, LastUseComputedPerStream)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 8, true);
    int out = p.declareStream("out", 1, 8);
    p.load(in);                  // 0
    p.callKernel(&k, {in, out}); // 1: last use of in
    p.store(out);                // 2: last use of out
    ProgramDeps d = analyzeDeps(p);
    EXPECT_EQ(list(d.lastUseOf[1]), (std::vector<int>{in}));
    EXPECT_EQ(list(d.lastUseOf[2]), (std::vector<int>{out}));
}

TEST(DepsTest, ReadsAndWritesClassified)
{
    static kernel::Kernel k = copyKernel();
    StreamProgram p("app");
    int in = p.declareStream("in", 1, 8, true);
    int out = p.declareStream("out", 1, 8);
    p.callKernel(&k, {in, out});
    ProgramDeps d = analyzeDeps(p);
    EXPECT_EQ(list(d.reads[0]), (std::vector<int>{in}));
    EXPECT_EQ(list(d.writes[0]), (std::vector<int>{out}));
}

TEST(DepsTest, FlatListsMatchSetOracleOnEveryApp)
{
    for (int c : {8, 16, 128}) {
        for (int n : {2, 5, 10, 14}) {
            sim::SimConfig cfg;
            cfg.size = vlsi::MachineSize{c, n};
            sim::StreamProcessor proc(cfg);
            for (const auto &app : workloads::appSuite()) {
                StreamProgram prog = app.build(cfg.size, proc.srf());
                expectMatchesOracle(prog, app.name + " C=" +
                                              std::to_string(c) +
                                              " N=" + std::to_string(n));
            }
        }
    }
}

TEST(DepsTest, FlatListsMatchSetOracleOnRandomPrograms)
{
    static const kernel::Kernel copy = copyKernel();
    static const kernel::Kernel mix = mixKernel();
    // Few streams, so kernels often bind one stream to an input and
    // an output, and loads often re-load a stream still in use.
    int same_stream_calls = 0, live_reloads = 0;
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        Prng rng(seed);
        StreamProgram p("random");
        const int n_streams = 1 + static_cast<int>(rng.below(6));
        for (int s = 0; s < n_streams; ++s)
            p.declareStream("s" + std::to_string(s), 1, 8, true);
        std::vector<bool> loaded(static_cast<size_t>(n_streams), false);
        const int n_ops = 1 + static_cast<int>(rng.below(48));
        auto pick = [&] {
            return static_cast<int>(
                rng.below(static_cast<uint32_t>(n_streams)));
        };
        for (int i = 0; i < n_ops; ++i) {
            int a = pick(), b = pick();
            switch (rng.below(4)) {
              case 0:
                live_reloads += loaded[static_cast<size_t>(a)] ? 1 : 0;
                loaded[static_cast<size_t>(a)] = true;
                p.load(a);
                break;
              case 1:
                p.store(a);
                break;
              case 2:
                same_stream_calls += a == b ? 1 : 0;
                p.callKernel(&copy, {a, b});
                break;
              default:
                p.callKernel(&mix, {a, b, pick(), pick()});
                break;
            }
        }
        expectMatchesOracle(p, "seed " + std::to_string(seed));
    }
    EXPECT_GT(same_stream_calls, 0);
    EXPECT_GT(live_reloads, 0);
}

} // namespace
} // namespace sps::stream
