/**
 * @file
 * Tail-iteration edge cases: driver lengths that are not a multiple
 * of C, combined with conditional reads/writes and phi distances that
 * exceed the remaining (or total) iteration count. These are the
 * exact seams of the lowered engine's steady/tail split, so every
 * case asserts both the reference semantics (hand-computed expected
 * values) and reference/lowered bit-identity.
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "interp/simd.h"
#include "kernel/builder.h"

namespace sps::interp {
namespace {

using isa::Word;
using kernel::Kernel;
using kernel::KernelBuilder;

/** Run both engines, demand bit-identity, return the lowered result. */
ExecResult
runBoth(const Kernel &k, int c, const std::vector<StreamData> &inputs)
{
    ExecResult want = runKernelReference(k, c, inputs);
    ExecResult got = executeLowered(lowerKernel(k), c, inputs);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.outputs.size(), want.outputs.size());
    for (size_t o = 0; o < want.outputs.size(); ++o) {
        EXPECT_EQ(got.outputs[o].recordWords,
                  want.outputs[o].recordWords)
            << "output " << o;
        EXPECT_EQ(got.outputs[o].words, want.outputs[o].words)
            << "output " << o;
    }
    return got;
}

TEST(LoweredTailEdgeTest, CondWriteFiresOnIdleTailClusters)
{
    // Predicate is true for zero inputs, so the 2 idle clusters of
    // the final strip (7 records on C=4: records 7 does not exist,
    // strip 1 covers records 4..6) ALSO append: conditional writes
    // are not guarded by the driver length, per the reference
    // semantics the tail path must keep.
    KernelBuilder b("condtail");
    int in = b.inStream("in");
    int out = b.outStream("out", 1, /*conditional=*/true);
    auto x = b.sbRead(in);
    b.condWrite(out, x, b.icmpLe(x, b.constI(3)));
    Kernel k = b.build();
    auto r =
        runBoth(k, 4, {StreamData::fromInts({1, 9, 3, 9, 9, 2, 9})});
    EXPECT_EQ(r.iterations, 2);
    // Strip 0 keeps 1, 3; strip 1 keeps 2 plus the idle cluster's
    // zero-filled read (record 7 -> 0, and 0 <= 3).
    EXPECT_EQ(r.outputs[0].toInts(),
              (std::vector<int32_t>{1, 3, 2, 0}));
}

TEST(LoweredTailEdgeTest, CondReadCursorAdvancesThroughPartialTail)
{
    // Odd clusters consume from the conditional stream; the partial
    // final strip still evaluates every cluster's predicate, so the
    // cursor advances exactly as in the full strips.
    KernelBuilder b("condread-tail");
    int drv = b.inStream("drv");
    int cs = b.inStream("cs", 1, /*conditional=*/true);
    int out = b.outStream("out", 2);
    auto d = b.sbRead(drv);
    auto odd = b.iand(b.clusterId(), b.constI(1));
    b.sbWrite(out, d, 0);
    b.sbWrite(out, b.condRead(cs, odd), 1);
    Kernel k = b.build();
    auto r = runBoth(k, 4,
                     {StreamData::fromInts({10, 11, 12, 13, 14, 15}),
                      StreamData::fromInts({70, 71, 72, 73})});
    EXPECT_EQ(r.iterations, 2);
    // Strip 0: clusters 1, 3 read 70, 71. Strip 1 (records 4, 5 only)
    // still routes 72 to cluster 1; cluster 3's read (73) lands on a
    // record past the driver length, so it is consumed but dropped.
    EXPECT_EQ(r.outputs[0].toInts(),
              (std::vector<int32_t>{10, 0, 11, 70, 12, 0, 13, 71, 14,
                                    0, 15, 72}));
}

TEST(LoweredTailEdgeTest, PhiDistanceLargerThanIterationCount)
{
    // 3 records on C=2 -> 2 iterations, phi distance 5: the history
    // is never old enough, so every iteration reads the init value.
    KernelBuilder b("phi-never");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(Word::fromInt(-7), 5);
    auto x = b.sbRead(in);
    b.setPhiSource(p, x);
    b.sbWrite(out, b.iadd(p, x));
    Kernel k = b.build();
    auto r = runBoth(k, 2, {StreamData::fromInts({1, 2, 3})});
    EXPECT_EQ(r.iterations, 2);
    EXPECT_EQ(r.outputs[0].toInts(),
              (std::vector<int32_t>{-6, -5, -4}));
}

TEST(LoweredTailEdgeTest, PhiCrossesIntoGuardedTail)
{
    // 7 records on C=2 -> 4 iterations (steady 3 + tail 1), phi
    // distance 3: the first history read happens exactly in the tail
    // iteration and must see iteration 0's value.
    KernelBuilder b("phi-tail");
    int in = b.inStream("in");
    int out = b.outStream("out");
    auto p = b.phi(Word::fromInt(100), 3);
    auto x = b.sbRead(in);
    b.setPhiSource(p, x);
    b.sbWrite(out, b.iadd(p, x));
    Kernel k = b.build();
    auto r =
        runBoth(k, 2, {StreamData::fromInts({1, 2, 3, 4, 5, 6, 7})});
    EXPECT_EQ(r.iterations, 4);
    // Iterations 0-2 read init (100); iteration 3 reads records 0, 1
    // of the input (1, 2) as the distance-3 history. The tail strip
    // only has record 6, so cluster 1's sum is dropped.
    EXPECT_EQ(r.outputs[0].toInts(),
              (std::vector<int32_t>{101, 102, 103, 104, 105, 106, 8}));
}

TEST(LoweredTailEdgeTest, ShortSecondaryInputBoundsSteadyRegion)
{
    // The driver has 10 records but the secondary input only 5, so
    // full-strip execution is only safe for one strip on C=4; the
    // remaining iterations must fall back to guarded reads that
    // zero-fill past the secondary stream's end.
    KernelBuilder b("short-b");
    int a = b.inStream("a");
    int s = b.inStream("b");
    int out = b.outStream("out");
    b.sbWrite(out, b.iadd(b.sbRead(a), b.sbRead(s)));
    Kernel k = b.build();
    auto r = runBoth(
        k, 4,
        {StreamData::fromInts({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
         StreamData::fromInts({10, 20, 30, 40, 50})});
    EXPECT_EQ(r.iterations, 3);
    EXPECT_EQ(r.outputs[0].toInts(),
              (std::vector<int32_t>{11, 22, 33, 44, 55, 6, 7, 8, 9,
                                    10}));
}

TEST(LoweredTailEdgeTest, CondStreamsPlusPhiAcrossPartialStrips)
{
    // Everything at once: a running sum (phi distance 1), conditional
    // consumption keyed on the sum's parity, and a conditional output
    // of the consumed values, over 9 records on C=4 (steady 2 strips
    // + 1-record tail).
    KernelBuilder b("stress");
    int drv = b.inStream("drv");
    int cs = b.inStream("extra", 1, /*conditional=*/true);
    int out = b.outStream("picked", 1, /*conditional=*/true);
    auto p = b.phi(Word::fromInt(0), 1);
    auto sum = b.iadd(p, b.sbRead(drv));
    b.setPhiSource(p, sum);
    auto oddsum = b.iand(sum, b.constI(1));
    auto got = b.condRead(cs, oddsum);
    b.condWrite(out, b.iadd(got, sum), oddsum);
    Kernel k = b.build();
    std::vector<int32_t> drv_data{3, 1, 4, 1, 5, 9, 2, 6, 5};
    std::vector<int32_t> cs_data{1000, 2000, 3000, 4000, 5000, 6000};
    runBoth(k, 4,
            {StreamData::fromInts(drv_data),
             StreamData::fromInts(cs_data)});
}

/** A kernel stressing every lane class that SIMD handles (int, float,
 *  compare/select, conversions, multi-word records) plus a phi so the
 *  program is deliberately NOT megastrip-fusible — the fused variant
 *  is covered by the equivalence and fuzz suites. */
Kernel
mixedKernel()
{
    KernelBuilder b("width-matrix");
    int in = b.inStream("in", 2);
    int out = b.outStream("out", 2);
    auto p = b.phi(Word::fromInt(1), 1);
    auto x = b.sbRead(in, 0);
    auto y = b.sbRead(in, 1);
    auto fx = b.itof(x);
    auto g = b.fmul(b.fadd(fx, b.itof(y)), b.constF(0.25f));
    auto fl = b.ffloor(g);
    auto sum = b.iadd(p, x);
    b.setPhiSource(p, sum);
    auto sel = b.select(b.icmpLt(x, y), sum, b.ftoi(fl));
    b.sbWrite(out, sel, 0);
    b.sbWrite(out, b.iadd(b.imin(x, y), b.ishr(sum, b.constI(2))), 1);
    return b.build();
}

/** Reference vs every backend (plus forced scalar) must agree at
 *  driver lengths straddling -1/0/+1 around multiples of the SIMD
 *  widths (4, 8), of C, and of the C*8 megastrip granule. */
TEST(LoweredTailEdgeTest, WidthBoundaryMatrixAcrossBackends)
{
    Kernel k = mixedKernel();
    for (int c : {1, 3, 4, 7, 8, 9, 16, 17}) {
        std::vector<int64_t> lengths{0, 1, 2};
        for (int64_t m : {int64_t{4}, int64_t{8},
                          static_cast<int64_t>(c),
                          static_cast<int64_t>(c) * 8}) {
            for (int64_t delta : {-1, 0, 1})
                lengths.push_back(std::max<int64_t>(0, 2 * m + delta));
        }
        for (int64_t len : lengths) {
            SCOPED_TRACE("C=" + std::to_string(c) +
                         " len=" + std::to_string(len));
            std::vector<int32_t> words;
            words.reserve(static_cast<size_t>(len) * 2);
            for (int64_t i = 0; i < len * 2; ++i)
                words.push_back(static_cast<int32_t>(i * 2654435761u));
            std::vector<StreamData> inputs{
                StreamData::fromInts(words, 2)};
            ExecResult want = runKernelReference(k, c, inputs);
            for (SimdBackend backend : availableSimdBackends()) {
                SCOPED_TRACE(simdBackendName(backend));
                ExecResult got = runKernel(k, c, inputs, backend);
                EXPECT_EQ(got.iterations, want.iterations);
                ASSERT_EQ(got.outputs.size(), want.outputs.size());
                EXPECT_EQ(got.outputs[0].words, want.outputs[0].words);
            }
        }
    }
}

/** Forced-scalar and every ISA tier run the same lowered kernel and
 *  must produce identical ExecResults — the dispatch layer may pick
 *  any tier without changing a single bit. */
TEST(SimdDispatchTest, AllTiersBitIdenticalToForcedScalar)
{
    Kernel k = mixedKernel();
    std::vector<int32_t> words;
    for (int i = 0; i < 2 * 77; ++i)
        words.push_back(i * 37 - 1000);
    std::vector<StreamData> inputs{StreamData::fromInts(words, 2)};
    ExecResult scalar =
        runKernel(k, 8, inputs, SimdBackend::Scalar);
    // Scalar is always available and availableSimdBackends leads
    // with it.
    ASSERT_FALSE(availableSimdBackends().empty());
    EXPECT_EQ(availableSimdBackends().front(), SimdBackend::Scalar);
    for (SimdBackend backend : availableSimdBackends()) {
        ExecResult got = runKernel(k, 8, inputs, backend);
        EXPECT_EQ(got.iterations, scalar.iterations)
            << simdBackendName(backend);
        ASSERT_EQ(got.outputs.size(), scalar.outputs.size());
        EXPECT_EQ(got.outputs[0].words, scalar.outputs[0].words)
            << simdBackendName(backend);
    }
    // An explicitly unsupported request must fall back, not crash:
    // run with every enum value regardless of host support.
    for (SimdBackend backend :
         {SimdBackend::Scalar, SimdBackend::Sse2, SimdBackend::Avx2}) {
        ExecResult got = runKernel(k, 8, inputs, backend);
        EXPECT_EQ(got.outputs[0].words, scalar.outputs[0].words)
            << simdBackendName(backend);
    }
}

/** Every backend x fusion-policy combination must be bit-identical on
 *  a partially fusible body — the policy is a perf knob, never a
 *  semantics knob. */
TEST(FusionDispatchTest, PoliciesBitIdenticalAcrossBackends)
{
    Kernel k = mixedKernel();
    LoweredKernel lk = lowerKernel(k);
    // mixedKernel carries a phi: partially fusible, never fully.
    EXPECT_FALSE(lk.fusible);
    EXPECT_TRUE(lk.partiallyFusible());
    std::vector<int32_t> words;
    for (int i = 0; i < 2 * 413; ++i)
        words.push_back(i * 37 - 1000);
    std::vector<StreamData> inputs{StreamData::fromInts(words, 2)};
    for (int c : {1, 2, 4, 8}) {
        ExecResult want = runKernelReference(k, c, inputs);
        for (SimdBackend backend : availableSimdBackends()) {
            for (FusionPolicy fusion :
                 {FusionPolicy::Off, FusionPolicy::Partial}) {
                SCOPED_TRACE(std::string(simdBackendName(backend)) +
                             "/" + fusionPolicyName(fusion) +
                             " C=" + std::to_string(c));
                ExecResult got =
                    runKernel(k, c, inputs, backend, fusion);
                EXPECT_EQ(got.iterations, want.iterations);
                ASSERT_EQ(got.outputs.size(), want.outputs.size());
                EXPECT_EQ(got.outputs[0].words,
                          want.outputs[0].words);
            }
        }
    }
}

} // namespace
} // namespace sps::interp
