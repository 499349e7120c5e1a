#include "interp/interpreter.h"

#include <cmath>

#include "common/log.h"
#include "interp/comm.h"
#include "isa/fp.h"
#include "interp/cond_stream.h"
#include "interp/lowered.h"
#include "kernel/validate.h"

namespace sps::interp {

using isa::Opcode;
using isa::Word;
using kernel::Kernel;
using kernel::Op;
using kernel::PortDir;
using kernel::ValueId;

StreamData
StreamData::fromFloats(const std::vector<float> &v, int record_words)
{
    StreamData s;
    s.recordWords = record_words;
    s.words.reserve(v.size());
    for (float f : v)
        s.words.push_back(Word::fromFloat(f));
    return s;
}

StreamData
StreamData::fromInts(const std::vector<int32_t> &v, int record_words)
{
    StreamData s;
    s.recordWords = record_words;
    s.words.reserve(v.size());
    for (int32_t i : v)
        s.words.push_back(Word::fromInt(i));
    return s;
}

std::vector<float>
StreamData::toFloats() const
{
    std::vector<float> out;
    out.reserve(words.size());
    for (Word w : words)
        out.push_back(w.asFloat());
    return out;
}

std::vector<int32_t>
StreamData::toInts() const
{
    std::vector<int32_t> out;
    out.reserve(words.size());
    for (Word w : words)
        out.push_back(w.asInt());
    return out;
}

namespace {

Word
evalScalar(const Op &op, const Word *a)
{
    auto I = [](Word w) { return w.asInt(); };
    auto F = [](Word w) { return w.asFloat(); };
    auto wi = [](int64_t v) {
        return Word::fromInt(static_cast<int32_t>(v));
    };
    auto wf = [](float v) { return Word::fromFloat(v); };
    switch (op.code) {
      case Opcode::IAdd: return wi(static_cast<int64_t>(I(a[0])) + I(a[1]));
      case Opcode::ISub: return wi(static_cast<int64_t>(I(a[0])) - I(a[1]));
      case Opcode::IMul: return wi(static_cast<int64_t>(I(a[0])) * I(a[1]));
      case Opcode::IAnd: return wi(I(a[0]) & I(a[1]));
      case Opcode::IOr: return wi(I(a[0]) | I(a[1]));
      case Opcode::IXor: return wi(I(a[0]) ^ I(a[1]));
      case Opcode::IShl:
        return wi(static_cast<int64_t>(I(a[0]))
                  << (I(a[1]) & 31));
      case Opcode::IShr: return wi(I(a[0]) >> (I(a[1]) & 31));
      case Opcode::IAbs: return wi(std::abs(static_cast<int64_t>(I(a[0]))));
      case Opcode::IMin: return wi(std::min(I(a[0]), I(a[1])));
      case Opcode::IMax: return wi(std::max(I(a[0]), I(a[1])));
      case Opcode::ICmpEq: return wi(I(a[0]) == I(a[1]) ? 1 : 0);
      case Opcode::ICmpLt: return wi(I(a[0]) < I(a[1]) ? 1 : 0);
      case Opcode::ICmpLe: return wi(I(a[0]) <= I(a[1]) ? 1 : 0);
      case Opcode::Select: return I(a[0]) != 0 ? a[1] : a[2];
      // NaN-sensitive ops go through the pinned semantics in
      // isa/fp.h (libm and inline expansions disagree on signed-zero
      // ties and NaN payloads; see that header).
      case Opcode::FAdd: return wf(isa::fpAdd(F(a[0]), F(a[1])));
      case Opcode::FSub: return wf(F(a[0]) - F(a[1]));
      case Opcode::FMul: return wf(isa::fpMul(F(a[0]), F(a[1])));
      case Opcode::FDiv: return wf(F(a[0]) / F(a[1]));
      case Opcode::FSqrt: return wf(std::sqrt(F(a[0])));
      case Opcode::FRsqrt: return wf(1.0f / std::sqrt(F(a[0])));
      case Opcode::FAbs: return wf(std::fabs(F(a[0])));
      case Opcode::FNeg: return wf(-F(a[0]));
      case Opcode::FMin: return wf(isa::fpMin(F(a[0]), F(a[1])));
      case Opcode::FMax: return wf(isa::fpMax(F(a[0]), F(a[1])));
      case Opcode::FCmpEq: return wi(F(a[0]) == F(a[1]) ? 1 : 0);
      case Opcode::FCmpLt: return wi(F(a[0]) < F(a[1]) ? 1 : 0);
      case Opcode::FCmpLe: return wi(F(a[0]) <= F(a[1]) ? 1 : 0);
      case Opcode::FToI: return wi(isa::fpToInt(F(a[0])));
      case Opcode::IToF: return wf(static_cast<float>(I(a[0])));
      case Opcode::FFloor: return wf(isa::fpFloor(F(a[0])));
      default:
        panic("evalScalar: unexpected opcode %s",
              std::string(isa::mnemonic(op.code)).c_str());
    }
}

} // namespace

ExecResult
runKernel(const Kernel &k, int c, const std::vector<StreamData> &inputs,
          SimdBackend backend, FusionPolicy fusion)
{
    return executeLowered(LoweredCache::global().get(k), c, inputs,
                          backend, fusion);
}

ExecResult
runKernelReference(const Kernel &k, int c,
                   const std::vector<StreamData> &inputs)
{
    SPS_ASSERT(c >= 1, "need at least one cluster");
    kernel::validateKernel(k);

    // Map stream indices to input/output ordinals.
    std::vector<int> in_ordinal(k.streams.size(), -1);
    std::vector<int> out_ordinal(k.streams.size(), -1);
    int n_in = 0, n_out = 0;
    for (size_t s = 0; s < k.streams.size(); ++s) {
        if (k.streams[s].dir == PortDir::In)
            in_ordinal[s] = n_in++;
        else
            out_ordinal[s] = n_out++;
    }
    SPS_ASSERT(static_cast<int>(inputs.size()) == n_in,
               "kernel %s expects %d inputs, got %zu", k.name.c_str(),
               n_in, inputs.size());
    for (size_t s = 0; s < k.streams.size(); ++s) {
        if (in_ordinal[s] < 0)
            continue;
        SPS_ASSERT(inputs[in_ordinal[s]].recordWords ==
                       k.streams[s].recordWords,
                   "kernel %s stream %s: record width mismatch",
                   k.name.c_str(), k.streams[s].name.c_str());
    }

    const int64_t driver_records =
        inputs[in_ordinal[k.lengthDriver]].records();
    const int64_t iterations = (driver_records + c - 1) / c;

    ExecResult result;
    result.iterations = iterations;
    result.outputs.resize(static_cast<size_t>(n_out));
    for (size_t s = 0; s < k.streams.size(); ++s) {
        if (out_ordinal[s] < 0)
            continue;
        StreamData &out = result.outputs[out_ordinal[s]];
        out.recordWords = k.streams[s].recordWords;
        if (!k.streams[s].conditional) {
            out.words.assign(static_cast<size_t>(driver_records) *
                                 out.recordWords,
                             Word{});
        }
    }

    // Per-cluster state.
    const size_t nops = k.ops.size();
    std::vector<std::vector<Word>> val(
        static_cast<size_t>(c), std::vector<Word>(nops, Word{}));
    int sp_words = std::max(1, k.scratchpadWords);
    std::vector<std::vector<Word>> scratch(
        static_cast<size_t>(c),
        std::vector<Word>(static_cast<size_t>(sp_words), Word{}));
    // Phi history ring buffers: hist[op][slot][cluster].
    std::vector<std::vector<std::vector<Word>>> hist(nops);
    for (size_t i = 0; i < nops; ++i) {
        if (k.ops[i].code == Opcode::Phi)
            hist[i].assign(static_cast<size_t>(k.ops[i].distance),
                           std::vector<Word>(static_cast<size_t>(c),
                                             Word{}));
    }
    // Conditional stream cursors (shared across clusters).
    std::vector<int64_t> cond_cursor(k.streams.size(), 0);

    // Scalar-op argument staging: a fixed stack buffer reused for
    // every op on every cluster (max arity is 3), so the hot default
    // case never touches the heap.
    Word args[3];
    std::vector<Word> comm_src(static_cast<size_t>(c));
    for (int64_t iter = 0; iter < iterations; ++iter) {
        for (size_t i = 0; i < nops; ++i) {
            const Op &op = k.ops[i];
            switch (op.code) {
              case Opcode::ConstInt:
              case Opcode::ConstFloat:
                for (int cl = 0; cl < c; ++cl)
                    val[cl][i] = op.imm;
                break;
              case Opcode::LoopIndex:
                for (int cl = 0; cl < c; ++cl)
                    val[cl][i] =
                        Word::fromInt(static_cast<int32_t>(iter));
                break;
              case Opcode::ClusterId:
                for (int cl = 0; cl < c; ++cl)
                    val[cl][i] = Word::fromInt(cl);
                break;
              case Opcode::NumClusters:
                for (int cl = 0; cl < c; ++cl)
                    val[cl][i] = Word::fromInt(c);
                break;
              case Opcode::Phi: {
                int d = op.distance;
                for (int cl = 0; cl < c; ++cl) {
                    val[cl][i] =
                        (iter >= d)
                            ? hist[i][static_cast<size_t>(iter % d)]
                                  [static_cast<size_t>(cl)]
                            : op.init;
                }
                break;
              }
              case Opcode::SbRead: {
                const StreamData &in = inputs[in_ordinal[op.stream]];
                for (int cl = 0; cl < c; ++cl) {
                    int64_t rec = iter * c + cl;
                    Word w{};
                    if (rec < in.records())
                        w = in.words[static_cast<size_t>(
                            rec * in.recordWords + op.field)];
                    val[cl][i] = w;
                }
                break;
              }
              case Opcode::SbWrite: {
                StreamData &out =
                    result.outputs[out_ordinal[op.stream]];
                for (int cl = 0; cl < c; ++cl) {
                    int64_t rec = iter * c + cl;
                    if (rec < driver_records)
                        out.words[static_cast<size_t>(
                            rec * out.recordWords + op.field)] =
                            val[cl][op.args[0]];
                }
                break;
              }
              case Opcode::SbCondRead: {
                const StreamData &in = inputs[in_ordinal[op.stream]];
                condReadStep(in, cond_cursor[op.stream], c,
                             [&](int cl) {
                                 return val[cl][op.args[0]].asInt() != 0;
                             },
                             [&](int cl, Word w) { val[cl][i] = w; });
                break;
              }
              case Opcode::SbCondWrite: {
                StreamData &out =
                    result.outputs[out_ordinal[op.stream]];
                condWriteStep(out, c,
                              [&](int cl) {
                                  return val[cl][op.args[1]].asInt() !=
                                         0;
                              },
                              [&](int cl) { return val[cl][op.args[0]]; });
                break;
              }
              case Opcode::SpRead:
                for (int cl = 0; cl < c; ++cl) {
                    int32_t addr = val[cl][op.args[0]].asInt();
                    SPS_ASSERT(addr >= 0 && addr < sp_words,
                               "kernel %s: SP read at %d out of %d",
                               k.name.c_str(), addr, sp_words);
                    val[cl][i] =
                        scratch[cl][static_cast<size_t>(addr)];
                }
                break;
              case Opcode::SpWrite:
                for (int cl = 0; cl < c; ++cl) {
                    int32_t addr = val[cl][op.args[0]].asInt();
                    SPS_ASSERT(addr >= 0 && addr < sp_words,
                               "kernel %s: SP write at %d out of %d",
                               k.name.c_str(), addr, sp_words);
                    scratch[cl][static_cast<size_t>(addr)] =
                        val[cl][op.args[1]];
                }
                break;
              case Opcode::CommPerm: {
                for (int cl = 0; cl < c; ++cl)
                    comm_src[cl] = val[cl][op.args[0]];
                commExchange(comm_src, c, [&](int cl) {
                    return val[cl][op.args[1]].asInt();
                }, [&](int cl, Word w) { val[cl][i] = w; });
                break;
              }
              default: {
                const size_t nargs = op.args.size();
                SPS_ASSERT(nargs <= 3, "kernel %s op %zu: arity %zu > 3",
                           k.name.c_str(), i, nargs);
                for (int cl = 0; cl < c; ++cl) {
                    for (size_t a = 0; a < nargs; ++a)
                        args[a] = val[cl][op.args[a]];
                    val[cl][i] = evalScalar(op, args);
                }
                break;
              }
            }
        }
        // Latch phi sources for future iterations.
        for (size_t i = 0; i < nops; ++i) {
            const Op &op = k.ops[i];
            if (op.code != Opcode::Phi)
                continue;
            int d = op.distance;
            for (int cl = 0; cl < c; ++cl)
                hist[i][static_cast<size_t>(iter % d)]
                    [static_cast<size_t>(cl)] = val[cl][op.args[0]];
        }
    }
    return result;
}

} // namespace sps::interp
