/**
 * @file
 * Internal shared executor for lowered kernels: one definition of the
 * per-opcode scalar semantics, usable over any lane sub-range of a
 * strip. The scalar backend runs whole strips through it; the SIMD
 * tiers (interp/simd.cpp) call it for remainder lanes past the last
 * full vector, for ops whose LaneClass forbids vectorization, and for
 * the guarded tail. Keeping exactly one copy of the semantics is what
 * makes the bit-exactness contract auditable.
 *
 * Lane geometry: `stride` is the row pitch of the SoA value/history
 * buffers (== c, or c * fuse when adjacent full strips are fused into
 * a megastrip). `ew` is the execution width of the current span: the
 * number of lanes one virtual iteration advances the streams by
 * (c * fuse for a whole fused block, c * rest for the leftover block,
 * c otherwise). Unguarded stream ops address records at
 * (firstRecord + iter * ew) * recordWords; guarded ops and the
 * stateful ops (conditional streams, scratchpad, phi) only ever run
 * with ew == c, and COMM exchanges within each c-wide sub-strip.
 */
#ifndef SPS_INTERP_EXEC_SPAN_H
#define SPS_INTERP_EXEC_SPAN_H

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/log.h"
#include "interp/comm.h"
#include "interp/cond_stream.h"
#include "interp/lowered.h"
#include "isa/fp.h"
#include "interp/simd.h"

namespace sps::interp::detail {

inline isa::Word
wi(int64_t v)
{
    return isa::Word::fromInt(static_cast<int32_t>(v));
}

inline isa::Word
wf(float v)
{
    return isa::Word::fromFloat(v);
}

/** Per-run execution state shared by every backend. */
struct ExecCtx
{
    const LoweredKernel *lk = nullptr;
    /** Real cluster count. */
    int c = 0;
    /** Row pitch of val/hist (>= c; == c * fuse when fused). */
    size_t stride = 0;
    /** Record that lane 0 of virtual iteration 0 holds: 0, or the
     *  first record of a leftover block run as its iteration 0. */
    int64_t firstRecord = 0;
    int64_t driverRecords = 0;
    const std::vector<StreamData> *inputs = nullptr;
    ExecResult *result = nullptr;
    isa::Word *val = nullptr;
    isa::Word *scratch = nullptr;
    isa::Word *hist = nullptr;
    int64_t *condCursor = nullptr;
    /** Lane -> first lane of its c-wide sub-strip (l - l % c), one
     *  entry per lane of a row: the wide tier's COMM gather. */
    const int32_t *subStripBase = nullptr;
};

/**
 * Execute one lowered instruction for lanes [lane0, lane1) of virtual
 * iteration `iter` at execution width `ew`. Guarded keeps the
 * reference interpreter's per-record bounds checks (the tail path).
 * Stateful ops (SbCond*, Sp*) ignore the lane range and act on all c
 * lanes; CommPerm exchanges within every c-wide sub-strip of [0, ew);
 * callers only route these here full-span.
 */
template <bool Guarded>
inline void
execInsn(const ExecCtx &ctx, const LoweredInsn &insn, int64_t iter,
         int ew, int lane0, int lane1)
{
    using isa::Opcode;
    using isa::Word;
    const size_t stride = ctx.stride;
    const int c = ctx.c;
    const int sp_words = ctx.lk->spWords;
    Word *const val = ctx.val;
    Word *D = val + static_cast<size_t>(insn.dst) * stride;

// Binary/unary sweeps over adjacent words: x, y name the operand
// words of one lane; the expression produces the result word.
#define SPS_UN(EXPR)                                                   \
    {                                                                  \
        const Word *A0 = val + static_cast<size_t>(insn.a0) * stride;  \
        for (int cl = lane0; cl < lane1; ++cl) {                       \
            const Word x = A0[cl];                                     \
            D[cl] = (EXPR);                                            \
        }                                                              \
    }                                                                  \
    break
#define SPS_BIN(EXPR)                                                  \
    {                                                                  \
        const Word *A0 = val + static_cast<size_t>(insn.a0) * stride;  \
        const Word *A1 = val + static_cast<size_t>(insn.a1) * stride;  \
        for (int cl = lane0; cl < lane1; ++cl) {                       \
            const Word x = A0[cl];                                     \
            const Word y = A1[cl];                                     \
            D[cl] = (EXPR);                                            \
        }                                                              \
    }                                                                  \
    break

    switch (insn.code) {
      case Opcode::IAdd:
        SPS_BIN(wi(static_cast<int64_t>(x.asInt()) + y.asInt()));
      case Opcode::ISub:
        SPS_BIN(wi(static_cast<int64_t>(x.asInt()) - y.asInt()));
      case Opcode::IMul:
        SPS_BIN(wi(static_cast<int64_t>(x.asInt()) * y.asInt()));
      case Opcode::IAnd:
        SPS_BIN(wi(x.asInt() & y.asInt()));
      case Opcode::IOr:
        SPS_BIN(wi(x.asInt() | y.asInt()));
      case Opcode::IXor:
        SPS_BIN(wi(x.asInt() ^ y.asInt()));
      case Opcode::IShl:
        SPS_BIN(wi(static_cast<int64_t>(x.asInt()) << (y.asInt() & 31)));
      case Opcode::IShr:
        SPS_BIN(wi(x.asInt() >> (y.asInt() & 31)));
      case Opcode::IAbs:
        SPS_UN(wi(std::abs(static_cast<int64_t>(x.asInt()))));
      case Opcode::IMin:
        SPS_BIN(wi(std::min(x.asInt(), y.asInt())));
      case Opcode::IMax:
        SPS_BIN(wi(std::max(x.asInt(), y.asInt())));
      case Opcode::ICmpEq:
        SPS_BIN(wi(x.asInt() == y.asInt() ? 1 : 0));
      case Opcode::ICmpLt:
        SPS_BIN(wi(x.asInt() < y.asInt() ? 1 : 0));
      case Opcode::ICmpLe:
        SPS_BIN(wi(x.asInt() <= y.asInt() ? 1 : 0));
      case Opcode::Select: {
        const Word *A0 = val + static_cast<size_t>(insn.a0) * stride;
        const Word *A1 = val + static_cast<size_t>(insn.a1) * stride;
        const Word *A2 = val + static_cast<size_t>(insn.a2) * stride;
        for (int cl = lane0; cl < lane1; ++cl)
            D[cl] = A0[cl].asInt() != 0 ? A1[cl] : A2[cl];
        break;
      }
      // NaN-sensitive ops use the pinned semantics from isa/fp.h,
      // identical to the reference interpreter's.
      case Opcode::FAdd:
        SPS_BIN(wf(isa::fpAdd(x.asFloat(), y.asFloat())));
      case Opcode::FSub:
        SPS_BIN(wf(x.asFloat() - y.asFloat()));
      case Opcode::FMul:
        SPS_BIN(wf(isa::fpMul(x.asFloat(), y.asFloat())));
      case Opcode::FDiv:
        SPS_BIN(wf(x.asFloat() / y.asFloat()));
      case Opcode::FSqrt:
        SPS_UN(wf(std::sqrt(x.asFloat())));
      case Opcode::FRsqrt:
        SPS_UN(wf(1.0f / std::sqrt(x.asFloat())));
      case Opcode::FAbs:
        SPS_UN(wf(std::fabs(x.asFloat())));
      case Opcode::FNeg:
        SPS_UN(wf(-x.asFloat()));
      case Opcode::FMin:
        SPS_BIN(wf(isa::fpMin(x.asFloat(), y.asFloat())));
      case Opcode::FMax:
        SPS_BIN(wf(isa::fpMax(x.asFloat(), y.asFloat())));
      case Opcode::FCmpEq:
        SPS_BIN(wi(x.asFloat() == y.asFloat() ? 1 : 0));
      case Opcode::FCmpLt:
        SPS_BIN(wi(x.asFloat() < y.asFloat() ? 1 : 0));
      case Opcode::FCmpLe:
        SPS_BIN(wi(x.asFloat() <= y.asFloat() ? 1 : 0));
      case Opcode::FToI:
        SPS_UN(wi(isa::fpToInt(x.asFloat())));
      case Opcode::IToF:
        SPS_UN(wf(static_cast<float>(x.asInt())));
      case Opcode::FFloor:
        SPS_UN(wf(isa::fpFloor(x.asFloat())));
      case Opcode::LoopIndex: {
        // Lane cl holds real iteration (firstRecord + iter * ew) / c
        // + cl / c: a fused span's lanes repeat each strip's index c
        // times, counted here rather than divided per lane.
        const int64_t base = (ctx.firstRecord + iter * ew) / c;
        if (ew > c) {
            int64_t it = base + lane0 / c;
            int r = lane0 % c;
            for (int cl = lane0; cl < lane1; ++cl) {
                D[cl] = wi(it);
                if (++r == c) {
                    r = 0;
                    ++it;
                }
            }
        } else {
            std::fill(D + lane0, D + lane1, wi(base));
        }
        break;
      }
      case Opcode::Phi: {
        if (iter >= insn.distance) {
            const Word *row =
                ctx.hist +
                (static_cast<size_t>(insn.histBase) +
                 static_cast<size_t>(iter % insn.distance)) *
                    stride;
            std::copy(row + lane0, row + lane1, D + lane0);
        } else {
            std::fill(D + lane0, D + lane1, insn.imm);
        }
        break;
      }
      case Opcode::SbRead: {
        const StreamData &in =
            (*ctx.inputs)[static_cast<size_t>(insn.ordinal)];
        const size_t rw = static_cast<size_t>(insn.recordWords);
        if constexpr (!Guarded) {
            const Word *src =
                in.words.data() +
                static_cast<size_t>(ctx.firstRecord + iter * ew) * rw +
                static_cast<size_t>(insn.field);
            if (rw == 1) {
                std::copy(src + lane0, src + lane1, D + lane0);
            } else {
                for (int cl = lane0; cl < lane1; ++cl)
                    D[cl] = src[static_cast<size_t>(cl) * rw];
            }
        } else {
            const int64_t nrec = in.records();
            for (int cl = lane0; cl < lane1; ++cl) {
                const int64_t rec = iter * c + cl;
                D[cl] = rec < nrec
                            ? in.words[static_cast<size_t>(
                                  rec * insn.recordWords + insn.field)]
                            : Word{};
            }
        }
        break;
      }
      case Opcode::SbWrite: {
        StreamData &out =
            ctx.result->outputs[static_cast<size_t>(insn.ordinal)];
        const Word *S = val + static_cast<size_t>(insn.a0) * stride;
        const size_t rw = static_cast<size_t>(insn.recordWords);
        if constexpr (!Guarded) {
            Word *dst =
                out.words.data() +
                static_cast<size_t>(ctx.firstRecord + iter * ew) * rw +
                static_cast<size_t>(insn.field);
            if (rw == 1) {
                std::copy(S + lane0, S + lane1, dst + lane0);
            } else {
                for (int cl = lane0; cl < lane1; ++cl)
                    dst[static_cast<size_t>(cl) * rw] = S[cl];
            }
        } else {
            for (int cl = lane0; cl < lane1; ++cl) {
                const int64_t rec = iter * c + cl;
                if (rec < ctx.driverRecords)
                    out.words[static_cast<size_t>(
                        rec * insn.recordWords + insn.field)] = S[cl];
            }
        }
        break;
      }
      case Opcode::SbCondRead: {
        const StreamData &in =
            (*ctx.inputs)[static_cast<size_t>(insn.ordinal)];
        condReadStep(in,
                     ctx.condCursor[static_cast<size_t>(insn.stream)],
                     c, val + static_cast<size_t>(insn.a0) * stride, D);
        break;
      }
      case Opcode::SbCondWrite: {
        StreamData &out =
            ctx.result->outputs[static_cast<size_t>(insn.ordinal)];
        condWriteStep(out, c,
                      val + static_cast<size_t>(insn.a1) * stride,
                      val + static_cast<size_t>(insn.a0) * stride);
        break;
      }
      case Opcode::SpRead: {
        const Word *A0 = val + static_cast<size_t>(insn.a0) * stride;
        for (int cl = 0; cl < c; ++cl) {
            const int32_t addr = A0[cl].asInt();
            SPS_ASSERT(addr >= 0 && addr < sp_words,
                       "kernel %s: SP read at %d out of %d",
                       ctx.lk->name.c_str(), addr, sp_words);
            D[cl] = ctx.scratch[static_cast<size_t>(cl) *
                                    static_cast<size_t>(sp_words) +
                                static_cast<size_t>(addr)];
        }
        break;
      }
      case Opcode::SpWrite: {
        const Word *A0 = val + static_cast<size_t>(insn.a0) * stride;
        const Word *A1 = val + static_cast<size_t>(insn.a1) * stride;
        for (int cl = 0; cl < c; ++cl) {
            const int32_t addr = A0[cl].asInt();
            SPS_ASSERT(addr >= 0 && addr < sp_words,
                       "kernel %s: SP write at %d out of %d",
                       ctx.lk->name.c_str(), addr, sp_words);
            ctx.scratch[static_cast<size_t>(cl) *
                            static_cast<size_t>(sp_words) +
                        static_cast<size_t>(addr)] = A1[cl];
        }
        break;
      }
      case Opcode::CommPerm: {
        // SSA guarantees dst != a0/a1, so the exchange can read the
        // send row in place (no staging copy). Under megastrip fusion
        // (ew > c) the exchange is cross-lane but intra-iteration:
        // each fused c-wide sub-strip exchanges within itself.
        const Word *A0 = val + static_cast<size_t>(insn.a0) * stride;
        const Word *A1 = val + static_cast<size_t>(insn.a1) * stride;
        for (int s0 = 0; s0 < ew; s0 += c)
            commExchange(A0 + s0, c, A1 + s0, D + s0);
        break;
      }
      default:
        panic("lowered execute: unexpected opcode %s in body",
              std::string(isa::mnemonic(insn.code)).c_str());
    }

#undef SPS_UN
#undef SPS_BIN
}

/** End-of-iteration phi latch: hist ring row <- source value row. */
inline void
latchPhis(const ExecCtx &ctx, int64_t iter)
{
    using isa::Word;
    for (const LoweredKernel::PhiLatch &latch : ctx.lk->latches) {
        Word *row = ctx.hist +
                    (static_cast<size_t>(latch.histBase) +
                     static_cast<size_t>(iter % latch.distance)) *
                        ctx.stride;
        const Word *src =
            ctx.val + static_cast<size_t>(latch.src) * ctx.stride;
        std::copy(src, src + ctx.c, row);
    }
}

/**
 * Run body ops [bodyBegin, bodyEnd) of iterations [from, to) at width
 * ew one op at a time through execInsn; `latch` fires the phi latch.
 * The scalar backend and the guarded tail run whole bodies at ew == c;
 * the SIMD tiers send spans too narrow for any vector here.
 */
template <bool Guarded>
inline void
runSpanScalar(const ExecCtx &ctx, int64_t from, int64_t to, int ew,
              int bodyBegin, int bodyEnd, bool latch)
{
    const LoweredInsn *body = ctx.lk->body.data();
    for (int64_t iter = from; iter < to; ++iter) {
        for (int bi = bodyBegin; bi < bodyEnd; ++bi)
            execInsn<Guarded>(ctx, body[bi], iter, ew, 0, ew);
        if (latch)
            latchPhis(ctx, iter);
    }
}

/**
 * SIMD backends (interp/simd.cpp): run body ops [bodyBegin, bodyEnd)
 * of unguarded virtual iterations [from, to) at execution width `ew`
 * (a multiple of c for fused megastrip spans, ew == c for plain strips
 * and partial-fusion serial cores). `latch` fires the end-of-iteration
 * phi latch. `backend` must be a supported non-Scalar tier.
 */
void runSpanSimd(SimdBackend backend, const ExecCtx &ctx, int64_t from,
                 int64_t to, int ew, int bodyBegin, int bodyEnd,
                 bool latch);

/** Full-body runSpanSimd (all ops, latch on): plain steady strips and
 *  fully fused megastrip blocks. */
void runSteadySimd(SimdBackend backend, const ExecCtx &ctx,
                   int64_t from, int64_t to, int ew);

} // namespace sps::interp::detail

#endif // SPS_INTERP_EXEC_SPAN_H
