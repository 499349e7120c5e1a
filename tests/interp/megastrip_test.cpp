/**
 * @file
 * Bit-exactness of the megastrip paths that only some cluster counts
 * and lengths reach: the wide tier's COMM gather (selectors in
 * [-c, 2c) at cluster counts that do not divide the vector width), its
 * fallback to the scalar exchange when one selector lies outside that
 * range after earlier vectors of the op were already written, and the
 * leftover block that runs the strips past the last whole megastrip
 * block at their own, narrower width. Every case is compared word for
 * word with runKernelReference on every available backend under both
 * fusion policies.
 */
#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "interp/simd.h"
#include "kernel/builder.h"

namespace sps::interp {
namespace {

using isa::Word;
using kernel::Kernel;
using kernel::KernelBuilder;

/** Reference vs every backend, the SIMD tiers under both policies. */
void
expectMatchesReference(const Kernel &k, int c,
                       const std::vector<StreamData> &inputs)
{
    const ExecResult want = runKernelReference(k, c, inputs);
    for (SimdBackend backend : availableSimdBackends()) {
        for (FusionPolicy fusion :
             {FusionPolicy::Off, FusionPolicy::Partial}) {
            const ExecResult got =
                runKernel(k, c, inputs, backend, fusion);
            EXPECT_EQ(got.iterations, want.iterations);
            ASSERT_EQ(got.outputs.size(), want.outputs.size());
            for (size_t o = 0; o < want.outputs.size(); ++o)
                EXPECT_EQ(got.outputs[o].words, want.outputs[o].words)
                    << simdBackendName(backend) << "/"
                    << fusionPolicyName(fusion) << " C=" << c
                    << " output " << o;
        }
    }
}

/** Two COMMs whose selectors come from an input stream: one straight
 *  from the stream, one from a value the first exchange produced. */
Kernel
commKernel()
{
    KernelBuilder b("comm_sel");
    int x = b.inStream("x", 2);
    int sel = b.inStream("sel");
    int out = b.outStream("y", 2);
    b.lengthDriver(x);
    auto s = b.sbRead(sel);
    auto moved = b.comm(b.sbRead(x, 0), s);
    auto back = b.comm(b.iadd(moved, b.sbRead(x, 1)), s);
    b.sbWrite(out, moved, 0);
    b.sbWrite(out, back, 1);
    return b.build();
}

std::vector<StreamData>
commInputs(int c, int64_t records, Prng &rng)
{
    std::vector<int32_t> x, sel;
    for (int64_t i = 0; i < records; ++i) {
        x.push_back(static_cast<int32_t>(rng.next()));
        x.push_back(static_cast<int32_t>(rng.next()));
        sel.push_back(-c + static_cast<int32_t>(rng.below(
                               static_cast<uint64_t>(3 * c))));
    }
    return {StreamData::fromInts(x, 2), StreamData::fromInts(sel)};
}

TEST(SimdCommTest, GatherPathSelectorsInRange)
{
    const Kernel k = commKernel();
    ASSERT_TRUE(lowerKernel(k).fusible);
    Prng rng(33);
    for (int c : {3, 5, 6, 7, 9, 12}) {
        const int64_t block =
            static_cast<int64_t>(fusedStrips(c, SimdBackend::Avx2)) * c;
        for (int64_t records : {block, 3 * block + c, 5 * block - 1}) {
            SCOPED_TRACE("C=" + std::to_string(c) +
                         " records=" + std::to_string(records));
            expectMatchesReference(k, c, commInputs(c, records, rng));
        }
    }
}

TEST(SimdCommTest, FallbackAfterVectorsWritten)
{
    // One selector outside [-c, 2c) in the last vector of a block:
    // the gather has already written the block's earlier vectors when
    // it meets it, and the scalar exchange must rewrite every lane.
    const Kernel k = commKernel();
    Prng rng(34);
    for (int c : {3, 5, 6, 7, 9, 12}) {
        for (SimdBackend tier : {SimdBackend::Sse2, SimdBackend::Avx2}) {
            const int64_t block =
                static_cast<int64_t>(fusedStrips(c, tier)) * c;
            for (int32_t bad : {INT_MIN, 3 * c}) {
                for (int64_t at : {block - 1, 2 * block - 2}) {
                    SCOPED_TRACE("C=" + std::to_string(c) + " block=" +
                                 std::to_string(block) + " bad=" +
                                 std::to_string(bad) + " at " +
                                 std::to_string(at));
                    std::vector<StreamData> inputs =
                        commInputs(c, 3 * block, rng);
                    inputs[1].words[static_cast<size_t>(at)] =
                        Word::fromInt(bad);
                    expectMatchesReference(k, c, inputs);
                }
            }
        }
    }
}

/** Fully fusible: LoopIndex plus multi-word reads and writes. */
Kernel
fusibleRecordKernel()
{
    KernelBuilder b("leftover_fusible");
    int x = b.inStream("x", 3);
    int out = b.outStream("y", 2);
    auto li = b.loopIndex();
    auto s = b.iadd(b.imul(b.sbRead(x, 0), li), b.sbRead(x, 2));
    b.sbWrite(out, s, 0);
    b.sbWrite(out, b.ixor(b.iadd(li, b.sbRead(x, 1)), b.clusterId()),
              1);
    return b.build();
}

/** Partially fusible: a phi chain and a scratchpad accumulator in the
 *  core, LoopIndex and record traffic in the prefix and suffix. */
Kernel
partialRecordKernel()
{
    KernelBuilder b("leftover_partial");
    b.scratchpad(4);
    int x = b.inStream("x", 2);
    int out = b.outStream("y", 2);
    auto a = b.sbRead(x, 0);
    auto v = b.sbRead(x, 1);
    auto li = b.loopIndex();
    auto p = b.phi(Word::fromInt(7), 2);
    auto q = b.iadd(p, v);
    b.setPhiSource(p, q);
    auto addr = b.iand(li, b.constI(3));
    auto sum = b.iadd(b.spRead(addr), a);
    b.spWrite(addr, sum);
    b.sbWrite(out, b.imul(sum, b.iadd(li, b.constI(1))), 0);
    b.sbWrite(out, b.ixor(q, a), 1);
    return b.build();
}

std::vector<StreamData>
recordInputs(int rw, int64_t records, Prng &rng)
{
    std::vector<int32_t> words;
    for (int64_t i = 0; i < records * rw; ++i)
        words.push_back(static_cast<int32_t>(rng.below(2001)) - 1000);
    return {StreamData::fromInts(words, rw)};
}

TEST(LeftoverBlockTest, RemainderStripsMatchReference)
{
    // steady % fuse of 1, 2 and fuse - 1 on either tier's block, with
    // and without a guarded tail after the leftover block.
    const Kernel fusible = fusibleRecordKernel();
    const Kernel partial = partialRecordKernel();
    ASSERT_TRUE(lowerKernel(fusible).fusible);
    ASSERT_TRUE(lowerKernel(partial).partiallyFusible());
    Prng rng(35);
    for (int c : {3, 5, 7}) {
        for (SimdBackend tier : {SimdBackend::Sse2, SimdBackend::Avx2}) {
            const int64_t fuse = fusedStrips(c, tier);
            for (int64_t rest : {int64_t{1}, int64_t{2}, fuse - 1}) {
                for (int64_t extra : {int64_t{0}, int64_t{c - 1}}) {
                    const int64_t records =
                        (2 * fuse + rest) * c + extra;
                    SCOPED_TRACE("C=" + std::to_string(c) + " fuse=" +
                                 std::to_string(fuse) + " records=" +
                                 std::to_string(records));
                    expectMatchesReference(fusible, c,
                                           recordInputs(3, records, rng));
                    expectMatchesReference(partial, c,
                                           recordInputs(2, records, rng));
                }
            }
        }
    }
}

} // namespace
} // namespace sps::interp
