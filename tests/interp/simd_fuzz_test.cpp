/**
 * @file
 * Seeded randomized differential fuzzer for the SIMD interpreter
 * backends: generated kernel programs (random elementwise op mixes
 * plus select / phi / COMM / scratchpad / conditional-stream
 * patterns) x cluster counts straddling the vector widths x stream
 * lengths biased onto SIMD-width and strip boundaries, asserting that
 * every available backend (scalar span executor, SSE2, AVX2) — the
 * SIMD tiers under every megastrip-fusion policy (off/full/partial) —
 * produces results bit-for-bit identical to runKernelReference — int
 * and float values alike are compared as raw bit patterns.
 *
 * Every assertion message carries the program seed; replay one
 * program with
 *
 *   interp_simd_test --seed=<N>          (and optionally --cases=<N>)
 *
 * which runs only that seed's program over the full cluster/length
 * matrix. The binary has its own main (gtest, not gtest_main) to
 * parse these flags.
 */
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "interp/simd.h"
#include "kernel/builder.h"

namespace {

using sps::Prng;
using sps::interp::ExecResult;
using sps::interp::FusionPolicy;
using sps::interp::SimdBackend;
using sps::interp::StreamData;
using sps::isa::Word;
using sps::kernel::Kernel;
using sps::kernel::KernelBuilder;
using sps::kernel::ValueId;

uint64_t g_replay_seed = 0;
bool g_replay = false;
uint64_t g_cases = 220;

/** Adversarial 32-bit payloads: int edges and float specials (NaN
 *  payloads, signaling NaN, +-0, +-inf, denormals) that flow through
 *  both int and float ops of the generated programs. */
constexpr uint32_t kSpecialBits[] = {
    0x00000000u, // 0 / +0.0f
    0x00000001u, // 1 / min denormal
    0x80000000u, // INT_MIN / -0.0f
    0x7fffffffu, // INT_MAX / NaN payload
    0xffffffffu, // -1 / -NaN payload
    0x3f800000u, // 1.0f
    0xbf800000u, // -1.0f
    0x7f800000u, // +inf
    0xff800000u, // -inf
    0x7fc00001u, // quiet NaN, payload 1
    0x7f800001u, // signaling NaN
    0xffc00123u, // negative quiet NaN, payload 0x123
    0x007fffffu, // max denormal
    0x00800000u, // min normal
    0x0000001fu, // shift-count edge
    0x4b000000u, // 2^23 (float/int conversion edge)
};

Word
wbits(uint32_t bits)
{
    Word w;
    w.bits = bits;
    return w;
}

uint32_t
randomBits(Prng &rng)
{
    if (rng.below(8) == 0)
        return kSpecialBits[rng.below(std::size(kSpecialBits))];
    return static_cast<uint32_t>(rng.next());
}

struct GenKernel
{
    Kernel k;
    /** Per input ordinal. */
    std::vector<int> inRecordWords;
    std::vector<bool> inConditional;
};

/** Build a random valid kernel from `seed`. Input 0 is the
 *  unconditional single-or-two-word driver; secondary inputs may be
 *  conditional (then accessed only via condRead). */
GenKernel
generate(uint64_t seed)
{
    Prng rng(seed);
    KernelBuilder b("fuzz_" + std::to_string(seed));
    GenKernel gk;

    const int n_in = 1 + static_cast<int>(rng.below(3));
    std::vector<int> in_streams;
    for (int i = 0; i < n_in; ++i) {
        const bool conditional = i > 0 && rng.below(4) == 0;
        const int rw = conditional ? 1 : 1 + static_cast<int>(rng.below(2));
        in_streams.push_back(b.inStream("in" + std::to_string(i), rw,
                                        conditional));
        gk.inRecordWords.push_back(rw);
        gk.inConditional.push_back(conditional);
    }
    b.lengthDriver(in_streams[0]);

    const int n_out = 1 + static_cast<int>(rng.below(2));
    std::vector<int> out_streams;
    std::vector<bool> out_conditional;
    std::vector<int> out_rw;
    for (int i = 0; i < n_out; ++i) {
        const bool conditional = i > 0 && rng.below(3) == 0;
        const int rw = conditional ? 1 : 1 + static_cast<int>(rng.below(2));
        out_streams.push_back(b.outStream("out" + std::to_string(i), rw,
                                          conditional));
        out_conditional.push_back(conditional);
        out_rw.push_back(rw);
    }

    // Dedicated partially-fusible shapes for the partial-megastrip-
    // fusion paths (the region partition in interp/lowered.cpp):
    //   1: scratchpad chain sandwiched between independent prefix ops
    //      and suffix ops (the chain result feeds COMM + the outputs)
    //   2: empty-prefix degenerate split (the carried chain leads the
    //      body and everything else descends from it)
    //   3: empty-suffix degenerate split (the chain consumes prefix
    //      values but feeds nothing downstream)
    const uint64_t shape_roll = rng.below(6);
    const int shape = shape_roll <= 3 ? static_cast<int>(shape_roll) : 0;

    if (shape == 2) {
        b.scratchpad(8);
        const ValueId addr =
            b.constI(static_cast<int32_t>(rng.below(8)));
        const ValueId prev = b.spRead(addr);
        const ValueId sum = b.iadd(
            prev, b.constI(std::bit_cast<int32_t>(randomBits(rng))));
        b.spWrite(addr, sum);
        const ValueId t = b.ixor(
            sum, b.constI(std::bit_cast<int32_t>(randomBits(rng))));
        for (size_t o = 0; o < out_streams.size(); ++o) {
            if (out_conditional[o]) {
                b.condWrite(out_streams[o], t, sum);
            } else {
                for (int f = 0; f < out_rw[o]; ++f)
                    b.sbWrite(out_streams[o], f % 2 == 0 ? sum : t, f);
            }
        }
        gk.k = b.build();
        return gk;
    }

    const bool use_sp = shape != 0 || rng.below(3) == 0;
    if (use_sp)
        b.scratchpad(8);
    ValueId sp_mask = sps::kernel::kNoValue;

    std::vector<ValueId> vals;
    const int n_const = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n_const; ++i)
        vals.push_back(
            b.constI(std::bit_cast<int32_t>(randomBits(rng))));
    if (rng.below(2) == 0)
        vals.push_back(b.loopIndex());
    if (rng.below(2) == 0)
        vals.push_back(b.clusterId());
    if (rng.below(4) == 0)
        vals.push_back(b.numClusters());

    // Phis up front (their sources are wired at the end).
    std::vector<ValueId> phis;
    if (rng.below(3) == 0) {
        const int n_phi = 1 + static_cast<int>(rng.below(2));
        for (int i = 0; i < n_phi; ++i) {
            const ValueId p =
                b.phi(wbits(randomBits(rng)),
                      1 + static_cast<int>(rng.below(3)));
            phis.push_back(p);
            vals.push_back(p);
        }
    }

    auto pick = [&]() -> ValueId {
        return vals[rng.below(vals.size())];
    };

    const int n_ops = 5 + static_cast<int>(rng.below(20));
    for (int i = 0; i < n_ops; ++i) {
        switch (rng.below(10)) {
          case 0: { // unconditional stream read
            const int s = static_cast<int>(rng.below(n_in));
            if (gk.inConditional[static_cast<size_t>(s)]) {
                vals.push_back(b.condRead(in_streams[static_cast<size_t>(s)],
                                          pick()));
            } else {
                const int field = static_cast<int>(rng.below(
                    gk.inRecordWords[static_cast<size_t>(s)]));
                vals.push_back(
                    b.sbRead(in_streams[static_cast<size_t>(s)], field));
            }
            break;
          }
          case 1: // intercluster exchange
            vals.push_back(b.comm(pick(), pick()));
            break;
          case 2: { // scratchpad traffic (addresses masked into range)
            if (!use_sp)
                break;
            if (sp_mask == sps::kernel::kNoValue)
                sp_mask = b.constI(7);
            const ValueId addr = b.iand(b.iabs(pick()), sp_mask);
            if (rng.below(2) == 0)
                b.spWrite(addr, pick());
            else
                vals.push_back(b.spRead(addr));
            break;
          }
          case 3: // select / compare chains
            vals.push_back(rng.below(2) == 0
                               ? b.select(pick(), pick(), pick())
                               : b.select(b.icmpLt(pick(), pick()),
                                          pick(), pick()));
            break;
          default: { // elementwise arithmetic, int and float
            const ValueId a = pick();
            const ValueId c = pick();
            switch (rng.below(24)) {
              case 0: vals.push_back(b.iadd(a, c)); break;
              case 1: vals.push_back(b.isub(a, c)); break;
              case 2: vals.push_back(b.imul(a, c)); break;
              case 3: vals.push_back(b.iand(a, c)); break;
              case 4: vals.push_back(b.ior(a, c)); break;
              case 5: vals.push_back(b.ixor(a, c)); break;
              case 6: vals.push_back(b.ishl(a, c)); break;
              case 7: vals.push_back(b.ishr(a, c)); break;
              case 8: vals.push_back(b.iabs(a)); break;
              case 9: vals.push_back(b.imin(a, c)); break;
              case 10: vals.push_back(b.imax(a, c)); break;
              case 11: vals.push_back(b.icmpEq(a, c)); break;
              case 12: vals.push_back(b.fadd(a, c)); break;
              case 13: vals.push_back(b.fsub(a, c)); break;
              case 14: vals.push_back(b.fmul(a, c)); break;
              case 15: vals.push_back(b.fdiv(a, c)); break;
              case 16: vals.push_back(b.fsqrt(a)); break;
              case 17: vals.push_back(b.frsqrt(a)); break;
              case 18: vals.push_back(b.fmin(a, c)); break;
              case 19: vals.push_back(b.fmax(a, c)); break;
              case 20: vals.push_back(b.ffloor(a)); break;
              case 21: vals.push_back(b.ftoi(a)); break;
              case 22: vals.push_back(b.itof(a)); break;
              case 23: vals.push_back(b.fcmpLe(a, c)); break;
            }
            break;
          }
        }
    }

    if (shape != 0) {
        // Scratchpad accumulator chain after the free-form (mostly
        // fusible) body above: the serial core of the partition.
        if (sp_mask == sps::kernel::kNoValue)
            sp_mask = b.constI(7);
        const ValueId addr = b.iand(b.iabs(pick()), sp_mask);
        const ValueId prev = b.spRead(addr);
        const ValueId sum = b.iadd(prev, pick());
        b.spWrite(addr, sum);
        if (shape == 1) {
            // Suffix ops: the chain result feeds COMM, elementwise
            // ops, and (via vals) the output writes below.
            vals.push_back(b.comm(sum, pick()));
            vals.push_back(b.ixor(sum, pick()));
            vals.push_back(sum);
        }
        // shape 3: the chain feeds nothing downstream, so the core
        // trails the body (empty suffix).
    }

    for (size_t o = 0; o < out_streams.size(); ++o) {
        if (out_conditional[o]) {
            b.condWrite(out_streams[o], pick(), pick());
        } else {
            // Write every field of the record so the whole output is
            // program-defined (unwritten fields stay zero-filled,
            // which is deterministic too, but less interesting).
            for (int f = 0; f < out_rw[o]; ++f)
                b.sbWrite(out_streams[o], pick(), f);
        }
    }

    for (ValueId p : phis)
        b.setPhiSource(p, pick());

    gk.k = b.build();
    return gk;
}

/** Lengths biased onto the interesting boundaries: -1/0/+1 around
 *  multiples of C (strips), of 8 (the widest vector), and of the
 *  fused megastrip block, plus tiny and free-form lengths. */
int64_t
pickLength(Prng &rng, int c)
{
    switch (rng.below(5)) {
      case 0:
        return static_cast<int64_t>(rng.below(3)); // 0..2
      case 1: {
        const int64_t m[] = {c, 8, static_cast<int64_t>(c) * 8};
        const int64_t base = m[rng.below(3)] *
                             (1 + static_cast<int64_t>(rng.below(4)));
        return std::max<int64_t>(0,
                                 base + static_cast<int64_t>(rng.below(3)) - 1);
      }
      case 2: {
        // Straddle either SIMD tier's megastrip block boundary.
        const SimdBackend tier =
            rng.below(2) == 0 ? SimdBackend::Sse2 : SimdBackend::Avx2;
        const int64_t block =
            static_cast<int64_t>(sps::interp::fusedStrips(c, tier)) * c;
        return std::max<int64_t>(
            0, block + static_cast<int64_t>(rng.below(3)) - 1);
      }
      default:
        return static_cast<int64_t>(rng.below(200));
    }
}

std::vector<StreamData>
makeInputs(const GenKernel &gk, int64_t driver_records, Prng &rng)
{
    std::vector<StreamData> inputs;
    for (size_t i = 0; i < gk.inRecordWords.size(); ++i) {
        StreamData s;
        s.recordWords = gk.inRecordWords[i];
        int64_t records;
        if (i == 0) {
            records = driver_records;
        } else if (gk.inConditional[i]) {
            records = static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(driver_records) + 12));
        } else {
            // Secondary lengths both shorter (bounding the steady
            // region) and longer than the driver.
            records = std::max<int64_t>(
                0, driver_records + static_cast<int64_t>(rng.below(9)) - 4);
        }
        s.words.resize(static_cast<size_t>(records) *
                       static_cast<size_t>(s.recordWords));
        for (Word &w : s.words)
            w = wbits(randomBits(rng));
        inputs.push_back(std::move(s));
    }
    return inputs;
}

/** Compare two ExecResults as raw bit patterns. */
testing::AssertionResult
sameBits(const ExecResult &ref, const ExecResult &got)
{
    if (ref.iterations != got.iterations)
        return testing::AssertionFailure()
               << "iterations " << got.iterations << " != ref "
               << ref.iterations;
    if (ref.outputs.size() != got.outputs.size())
        return testing::AssertionFailure() << "output count differs";
    for (size_t o = 0; o < ref.outputs.size(); ++o) {
        const auto &r = ref.outputs[o].words;
        const auto &g = got.outputs[o].words;
        if (r.size() != g.size())
            return testing::AssertionFailure()
                   << "output " << o << ": " << g.size()
                   << " words != ref " << r.size();
        for (size_t w = 0; w < r.size(); ++w) {
            if (r[w].bits != g[w].bits)
                return testing::AssertionFailure()
                       << "output " << o << " word " << w << ": 0x"
                       << std::hex << g[w].bits << " != ref 0x"
                       << r[w].bits;
        }
    }
    return testing::AssertionSuccess();
}

/** One program seed x one (C, length) point, over every backend and
 *  (for the SIMD tiers, where fusion applies) every fusion policy. */
void
runCase(const GenKernel &gk, uint64_t seed, int c,
        int64_t driver_records, Prng &rng)
{
    const std::vector<StreamData> inputs =
        makeInputs(gk, driver_records, rng);
    const ExecResult ref =
        sps::interp::runKernelReference(gk.k, c, inputs);
    for (SimdBackend backend : sps::interp::availableSimdBackends()) {
        if (backend == SimdBackend::Scalar) {
            // The scalar span executor never fuses; one run covers it.
            const ExecResult got =
                sps::interp::runKernel(gk.k, c, inputs, backend);
            EXPECT_TRUE(sameBits(ref, got))
                << "backend scalar C=" << c << " len=" << driver_records
                << "  replay: interp_simd_test --seed=" << seed;
            continue;
        }
        for (FusionPolicy fusion :
             {FusionPolicy::Off, FusionPolicy::Partial}) {
            const ExecResult got =
                sps::interp::runKernel(gk.k, c, inputs, backend,
                                       fusion);
            EXPECT_TRUE(sameBits(ref, got))
                << "backend " << sps::interp::simdBackendName(backend)
                << "/" << sps::interp::fusionPolicyName(fusion)
                << " C=" << c << " len=" << driver_records
                << "  replay: interp_simd_test --seed=" << seed;
        }
    }
}

constexpr int kClusterSet[] = {1,  3,  4,  5,  6,  7,  8,
                               9,  12, 15, 16, 17, 24, 32};

TEST(SimdFuzzTest, DifferentialCorpus)
{
    if (g_replay) {
        // Replay one program over the full matrix, loudly.
        const GenKernel gk = generate(g_replay_seed);
        std::printf("replaying seed %" PRIu64 " (%zu ops)\n",
                    g_replay_seed, gk.k.ops.size());
        Prng rng(g_replay_seed ^ 0x9e3779b97f4a7c15ull);
        for (int c : kClusterSet)
            for (int rep = 0; rep < 4; ++rep)
                runCase(gk, g_replay_seed, c, pickLength(rng, c), rng);
        return;
    }
    uint64_t executed = 0;
    for (uint64_t s = 0; s < g_cases; ++s) {
        const uint64_t seed = 1000 + s;
        const GenKernel gk = generate(seed);
        Prng rng(seed ^ 0x9e3779b97f4a7c15ull);
        for (int pick_c = 0; pick_c < 2; ++pick_c) {
            const int c =
                kClusterSet[rng.below(std::size(kClusterSet))];
            for (int pick_l = 0; pick_l < 3; ++pick_l) {
                runCase(gk, seed, c, pickLength(rng, c), rng);
                ++executed;
            }
            if (HasFailure())
                return; // first failing seed is the useful one
        }
    }
    // The acceptance bar for the corpus: >= 1000 seeded cases.
    EXPECT_GE(executed, 1000u);
}

/** The generator's corpus must itself cover the interesting shapes —
 *  guard against a refactor quietly degenerating it. */
TEST(SimdFuzzTest, CorpusCoversOpClasses)
{
    if (g_replay)
        GTEST_SKIP();
    bool saw_phi = false, saw_comm = false, saw_cond_in = false,
         saw_cond_out = false, saw_sp = false, saw_fusible = false,
         saw_unfusible = false;
    // Region-partition coverage: every region class must occur, and
    // the partially-fusible shapes must include sandwich bodies, the
    // empty-prefix and empty-suffix degenerate splits, and a carried
    // chain feeding COMM (a suffix CommPerm).
    bool saw_partial = false, saw_sandwich = false,
         saw_empty_prefix = false, saw_empty_suffix = false,
         saw_prefix_op = false, saw_core_op = false,
         saw_suffix_op = false, saw_suffix_comm = false;
    for (uint64_t s = 0; s < 100; ++s) {
        const GenKernel gk = generate(1000 + s);
        const sps::interp::LoweredKernel lk =
            sps::interp::lowerKernel(gk.k);
        if (lk.fusible)
            saw_fusible = true;
        else
            saw_unfusible = true;
        const int nbody = static_cast<int>(lk.body.size());
        if (lk.partiallyFusible()) {
            saw_partial = true;
            if (lk.coreBegin > 0 && lk.coreEnd < nbody)
                saw_sandwich = true;
            if (lk.coreBegin == 0)
                saw_empty_prefix = true;
            if (lk.coreEnd == nbody)
                saw_empty_suffix = true;
        }
        for (const auto &insn : lk.body) {
            using sps::interp::Region;
            using sps::isa::Opcode;
            if (insn.code == Opcode::Phi)
                saw_phi = true;
            if (insn.code == Opcode::CommPerm) {
                saw_comm = true;
                if (insn.region == Region::Suffix)
                    saw_suffix_comm = true;
            }
            if (insn.code == Opcode::SbCondRead)
                saw_cond_in = true;
            if (insn.code == Opcode::SbCondWrite)
                saw_cond_out = true;
            if (insn.code == Opcode::SpRead ||
                insn.code == Opcode::SpWrite)
                saw_sp = true;
            if (insn.region == Region::Prefix)
                saw_prefix_op = true;
            else if (insn.region == Region::Core)
                saw_core_op = true;
            else
                saw_suffix_op = true;
        }
    }
    EXPECT_TRUE(saw_phi);
    EXPECT_TRUE(saw_comm);
    EXPECT_TRUE(saw_cond_in);
    EXPECT_TRUE(saw_cond_out);
    EXPECT_TRUE(saw_sp);
    EXPECT_TRUE(saw_fusible);
    EXPECT_TRUE(saw_unfusible);
    EXPECT_TRUE(saw_partial);
    EXPECT_TRUE(saw_sandwich);
    EXPECT_TRUE(saw_empty_prefix);
    EXPECT_TRUE(saw_empty_suffix);
    EXPECT_TRUE(saw_prefix_op);
    EXPECT_TRUE(saw_core_op);
    EXPECT_TRUE(saw_suffix_op);
    EXPECT_TRUE(saw_suffix_comm);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--seed=", 0) == 0) {
            g_replay_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
            g_replay = true;
        } else if (arg.rfind("--cases=", 0) == 0) {
            g_cases = std::strtoull(arg.c_str() + 8, nullptr, 10);
        }
    }
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
