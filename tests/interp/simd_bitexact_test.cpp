/**
 * @file
 * Adversarial bit-exactness tests for the SIMD interpreter backends:
 * every vectorized opcode is driven with the full cross product of
 * IEEE special values (NaN payloads, signaling NaNs, +-0.0,
 * denormals, +-inf, INT_MIN-pattern bits, shift counts past the lane
 * width) and the result is compared word-for-word, as raw bit
 * patterns, against runKernelReference across all available backends
 * and cluster counts that exercise the AVX2 tier, the SSE2 tier and
 * the scalar remainder lanes. A dedicated case proves flush-to-zero /
 * denormals-are-zero stayed off by checking an exact denormal product.
 */
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "interp/simd.h"
#include "kernel/builder.h"

namespace {

using sps::interp::ExecResult;
using sps::interp::SimdBackend;
using sps::interp::StreamData;
using sps::isa::Word;
using sps::kernel::KernelBuilder;
using sps::kernel::ValueId;

Word
wbits(uint32_t bits)
{
    Word w;
    w.bits = bits;
    return w;
}

/** 16 payloads covering the float and int edge cases at once: the
 *  same bits flow through int and float ops of each kernel. */
constexpr uint32_t kEdge[] = {
    0x00000000u, // +0.0f / 0
    0x80000000u, // -0.0f / INT_MIN
    0x7f800000u, // +inf
    0xff800000u, // -inf
    0x7fc00001u, // quiet NaN, payload 1
    0xffc00123u, // negative quiet NaN, payload 0x123
    0x7f800001u, // signaling NaN
    0x00000001u, // min denormal / 1
    0x007fffffu, // max denormal / INT_MAX>>8
    0x00800000u, // min normal
    0x3f800000u, // 1.0f
    0xbf800000u, // -1.0f
    0x7f7fffffu, // FLT_MAX (3.4e38)
    0x4b000000u, // 2^23 (exact int<->float boundary)
    0xffffffffu, // -1 / -NaN, shift count 31 after mask
    0x00000023u, // 35: shift count past the lane width
};
constexpr size_t kEdgeN = std::size(kEdge);

struct OpCase
{
    const char *name;
    int arity; // 1 or 2 stream operands
    ValueId (*emit)(KernelBuilder &, ValueId, ValueId);
};

const OpCase kOpCases[] = {
    {"iadd", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.iadd(x, y); }},
    {"isub", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.isub(x, y); }},
    {"imul", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.imul(x, y); }},
    {"iand", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.iand(x, y); }},
    {"ior", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.ior(x, y); }},
    {"ixor", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.ixor(x, y); }},
    {"ishl", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.ishl(x, y); }},
    {"ishr", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.ishr(x, y); }},
    {"iabs", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.iabs(x); }},
    {"imin", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.imin(x, y); }},
    {"imax", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.imax(x, y); }},
    {"icmp_eq", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.icmpEq(x, y); }},
    {"icmp_lt", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.icmpLt(x, y); }},
    {"icmp_le", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.icmpLe(x, y); }},
    {"select", 2,
     [](KernelBuilder &b, ValueId x, ValueId y) {
         // Predicate is a raw edge value: non-zero NaN bits must
         // select exactly like the reference's `!= 0` test.
         return b.select(x, y, b.ixor(x, y));
     }},
    {"fadd", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fadd(x, y); }},
    {"fsub", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fsub(x, y); }},
    {"fmul", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fmul(x, y); }},
    {"fdiv", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fdiv(x, y); }},
    {"fsqrt", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.fsqrt(x); }},
    {"frsqrt", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.frsqrt(x); }},
    {"fabs", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.fabsOp(x); }},
    {"fneg", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.fneg(x); }},
    {"fmin", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fmin(x, y); }},
    {"fmax", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fmax(x, y); }},
    {"ffloor", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.ffloor(x); }},
    {"fcmp_eq", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fcmpEq(x, y); }},
    {"fcmp_lt", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fcmpLt(x, y); }},
    {"fcmp_le", 2, [](KernelBuilder &b, ValueId x, ValueId y) { return b.fcmpLe(x, y); }},
    {"ftoi", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.ftoi(x); }},
    {"itof", 1, [](KernelBuilder &b, ValueId x, ValueId) { return b.itof(x); }},
};

testing::AssertionResult
sameBits(const ExecResult &ref, const ExecResult &got)
{
    if (ref.iterations != got.iterations)
        return testing::AssertionFailure() << "iteration count differs";
    for (size_t o = 0; o < ref.outputs.size(); ++o) {
        const auto &r = ref.outputs[o].words;
        const auto &g = got.outputs[o].words;
        if (r.size() != g.size())
            return testing::AssertionFailure()
                   << "output " << o << " length differs";
        for (size_t w = 0; w < r.size(); ++w)
            if (r[w].bits != g[w].bits)
                return testing::AssertionFailure()
                       << "output " << o << " word " << w << ": got 0x"
                       << std::hex << g[w].bits << " ref 0x" << r[w].bits;
    }
    return testing::AssertionSuccess();
}

void
checkAllBackends(const sps::kernel::Kernel &k, int c,
                 const std::vector<StreamData> &inputs,
                 const std::string &what)
{
    const ExecResult ref = sps::interp::runKernelReference(k, c, inputs);
    for (SimdBackend backend : sps::interp::availableSimdBackends()) {
        const ExecResult got =
            sps::interp::runKernel(k, c, inputs, backend);
        EXPECT_TRUE(sameBits(ref, got))
            << what << " backend "
            << sps::interp::simdBackendName(backend) << " C=" << c;
    }
}

/** Every vectorized op over the full edge-value cross product, at
 *  cluster counts hitting the AVX2 tier (8), the SSE2 tier (4) and
 *  sub-width scalarization (3), with lengths that leave a guarded
 *  tail. */
TEST(SimdBitExactTest, EdgeValueCrossProductPerOp)
{
    for (const OpCase &oc : kOpCases) {
        KernelBuilder b(std::string("bx_") + oc.name);
        const int in0 = b.inStream("a", 1);
        const int in1 = oc.arity == 2 ? b.inStream("b", 1) : -1;
        b.lengthDriver(in0);
        const int out = b.outStream("o", 1);
        const ValueId x = b.sbRead(in0);
        const ValueId y = oc.arity == 2 ? b.sbRead(in1) : x;
        b.sbWrite(out, oc.emit(b, x, y), 0);
        const sps::kernel::Kernel k = b.build();

        // Cross product (binary) or straight sweep (unary), plus a
        // ragged remainder so the guarded tail sees edge values too.
        const int64_t n = oc.arity == 2
                              ? static_cast<int64_t>(kEdgeN * kEdgeN) + 3
                              : static_cast<int64_t>(kEdgeN * 4) + 5;
        std::vector<StreamData> inputs(oc.arity == 2 ? 2 : 1);
        for (auto &s : inputs) {
            s.recordWords = 1;
            s.words.resize(static_cast<size_t>(n));
        }
        for (int64_t i = 0; i < n; ++i) {
            const size_t ii = static_cast<size_t>(i);
            inputs[0].words[ii] = wbits(kEdge[ii % kEdgeN]);
            if (oc.arity == 2)
                inputs[1].words[ii] =
                    wbits(kEdge[(ii / kEdgeN) % kEdgeN]);
        }
        for (int c : {3, 4, 8})
            checkAllBackends(k, c, inputs, oc.name);
    }
}

/** A denormal product must come out with its exact denormal bits:
 *  0x00800000 (min normal) * 0x3f000000 (0.5f) == 0x00400000. If the
 *  SIMD path ran with FTZ/DAZ enabled this would be +0.0. */
TEST(SimdBitExactTest, DenormalProductProvesFtzOff)
{
    KernelBuilder b("bx_ftz");
    const int in0 = b.inStream("a", 1);
    b.lengthDriver(in0);
    const int out = b.outStream("o", 1);
    b.sbWrite(out, b.fmul(b.sbRead(in0), b.constF(0.5f)), 0);
    const sps::kernel::Kernel k = b.build();

    std::vector<StreamData> inputs(1);
    inputs[0].recordWords = 1;
    inputs[0].words.assign(64, wbits(0x00800000u));
    for (SimdBackend backend : sps::interp::availableSimdBackends()) {
        const ExecResult got =
            sps::interp::runKernel(k, 8, inputs, backend);
        ASSERT_EQ(got.outputs[0].words.size(), 64u);
        for (const Word &w : got.outputs[0].words)
            EXPECT_EQ(w.bits, 0x00400000u)
                << sps::interp::simdBackendName(backend);
    }
}

/** Multi-word records route SbRead through the AVX2 strided-gather
 *  path; check it against the reference with edge values in every
 *  field. */
TEST(SimdBitExactTest, StridedRecordGather)
{
    KernelBuilder b("bx_gather");
    const int in0 = b.inStream("a", 3);
    b.lengthDriver(in0);
    const int out = b.outStream("o", 1);
    const ValueId f0 = b.sbRead(in0, 0);
    const ValueId f1 = b.sbRead(in0, 1);
    const ValueId f2 = b.sbRead(in0, 2);
    b.sbWrite(out, b.ixor(b.ixor(f0, f1), f2), 0);
    const sps::kernel::Kernel k = b.build();

    const int64_t n = 131; // full AVX2 strips + SSE2 strips + tail
    std::vector<StreamData> inputs(1);
    inputs[0].recordWords = 3;
    inputs[0].words.resize(static_cast<size_t>(n) * 3);
    for (size_t i = 0; i < inputs[0].words.size(); ++i)
        inputs[0].words[i] = wbits(kEdge[(i * 7 + 3) % kEdgeN] ^
                                   static_cast<uint32_t>(i * 0x9e3779b9u));
    for (int c : {3, 4, 8, 16})
        checkAllBackends(k, c, inputs, "gather");
}

/** FToI on NaN / inf / out-of-range must match the reference exactly,
 *  and the reference must give 0x80000000 on all of them (what x86
 *  cvttps2dq yields; isa::fpToInt pins the scalar engines to it).
 *  Singled out because it is the one case where scalar UB rules and
 *  hardware semantics could diverge. */
TEST(SimdBitExactTest, FtoiSpecialsSaturateIdentically)
{
    KernelBuilder b("bx_ftoi_edge");
    const int in0 = b.inStream("a", 1);
    b.lengthDriver(in0);
    const int out = b.outStream("o", 1);
    b.sbWrite(out, b.ftoi(b.sbRead(in0)), 0);
    const sps::kernel::Kernel k = b.build();

    constexpr uint32_t kFtoi[] = {
        0x7fc00001u, 0x7f800000u, 0xff800000u, 0x7f7fffffu, // NaN/inf/3.4e38
        0x4effffffu, 0x4f000000u, // just below / at 2^31
        0xcf000000u, 0xcf000001u, // -2^31 exact / below INT_MIN
        0xbf800000u, 0x00000001u, 0x80000000u, 0x4b3c614eu,
    };
    std::vector<StreamData> inputs(1);
    inputs[0].recordWords = 1;
    inputs[0].words.resize(67);
    for (size_t i = 0; i < inputs[0].words.size(); ++i)
        inputs[0].words[i] = wbits(kFtoi[i % std::size(kFtoi)]);
    for (int c : {3, 8})
        checkAllBackends(k, c, inputs, "ftoi-specials");

    // NaN, +-inf, 3.4e38, 2^31 and below -2^31 have no int32 value,
    // and -2^31 is INT32_MIN itself: each gives 0x80000000.
    const std::set<uint32_t> saturating = {
        0x7fc00001u, 0x7f800000u, 0xff800000u, 0x7f7fffffu,
        0x4f000000u, 0xcf000000u, 0xcf000001u};
    for (int c : {3, 8}) {
        const ExecResult ref =
            sps::interp::runKernelReference(k, c, inputs);
        const auto &in = inputs[0].words;
        const auto &out = ref.outputs[0].words;
        ASSERT_EQ(out.size(), in.size());
        for (size_t i = 0; i < out.size(); ++i) {
            if (saturating.count(in[i].bits)) {
                EXPECT_EQ(out[i].bits, 0x80000000u)
                    << "input 0x" << std::hex << in[i].bits
                    << std::dec << " C=" << c;
            }
        }
    }
}

} // namespace
