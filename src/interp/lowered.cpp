#include "interp/lowered.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.h"
#include "interp/exec_span.h"
#include "kernel/fingerprint.h"
#include "kernel/validate.h"

namespace sps::interp {

using isa::FuClass;
using isa::Opcode;
using isa::Word;
using kernel::Kernel;
using kernel::Op;
using kernel::PortDir;

LaneClass
laneClassOf(Opcode code)
{
    // The exceptions to the unit class's lane class: FFloor needs the
    // wide tier's ISA, and conditional streams (COMM issue slots, but
    // per-cluster cursor state) and Phi carry state across iterations.
    switch (code) {
      case Opcode::FFloor:
        return LaneClass::VectorWide;
      case Opcode::SbCondRead:
      case Opcode::SbCondWrite:
      case Opcode::Phi:
        return LaneClass::Scalar;
      default:
        break;
    }
    switch (isa::fuClassOf(code)) {
      case FuClass::Adder:
      case FuClass::Multiplier:
      case FuClass::Dsq:
        return LaneClass::Vector;
      case FuClass::SbPort:
        return LaneClass::Stream;
      case FuClass::None:
        return LaneClass::Broadcast;
      case FuClass::Comm:
        return LaneClass::Cross;
      case FuClass::Scratchpad:
        break;
    }
    return LaneClass::Scalar;
}

namespace {

/**
 * Dependence-cone partition (see Region in lowered.h): seed from the
 * loop-carried ops, slice forward and backward over dataflow args,
 * side-effect token edges (Op::orderAfter), and phi-latch edges
 * (latch source -> phi), then reorder the body into
 * [prefix | core | suffix] with program order kept inside each
 * region. `bodyOf` maps a ValueId to its body index (-1 for preamble
 * ops, which are iteration-invariant and partition-neutral).
 */
void
partitionRegions(const Kernel &k, const std::vector<int> &bodyOf,
                 LoweredKernel &lk)
{
    const int n = static_cast<int>(lk.body.size());
    std::vector<std::vector<int>> succ(static_cast<size_t>(n));
    std::vector<std::vector<int>> pred(static_cast<size_t>(n));
    auto addEdge = [&](int from, int to) {
        if (from >= 0 && to >= 0 && from != to) {
            succ[static_cast<size_t>(from)].push_back(to);
            pred[static_cast<size_t>(to)].push_back(from);
        }
    };
    for (int j = 0; j < n; ++j) {
        const LoweredInsn &insn = lk.body[static_cast<size_t>(j)];
        for (kernel::ValueId a : {insn.a0, insn.a1, insn.a2}) {
            if (a != kernel::kNoValue)
                addEdge(bodyOf[static_cast<size_t>(a)], j);
        }
        // Token edges keep side effects (same-stream accesses,
        // scratchpad traffic) in program order across regions.
        const Op &op = k.ops[static_cast<size_t>(insn.dst)];
        for (kernel::ValueId t : op.orderAfter)
            addEdge(bodyOf[static_cast<size_t>(t)], j);
    }
    // Phi-latch edges: the latch reads its source at end of
    // iteration, so the source must be computed by the time the
    // carried core of the same iteration retires.
    for (const LoweredKernel::PhiLatch &latch : lk.latches) {
        for (int j = 0; j < n; ++j) {
            const LoweredInsn &insn = lk.body[static_cast<size_t>(j)];
            if (insn.code == Opcode::Phi &&
                insn.histBase == latch.histBase)
                addEdge(bodyOf[static_cast<size_t>(latch.src)], j);
        }
    }

    std::vector<char> inF(static_cast<size_t>(n), 0);
    std::vector<char> inB(static_cast<size_t>(n), 0);
    std::vector<int> work;
    for (int j = 0; j < n; ++j) {
        if (lk.body[static_cast<size_t>(j)].lanes ==
            LaneClass::Scalar) {
            inF[static_cast<size_t>(j)] = 1;
            inB[static_cast<size_t>(j)] = 1;
            work.push_back(j);
        }
    }
    std::vector<int> seeds = work;
    while (!work.empty()) {
        int j = work.back();
        work.pop_back();
        for (int s : succ[static_cast<size_t>(j)]) {
            if (!inF[static_cast<size_t>(s)]) {
                inF[static_cast<size_t>(s)] = 1;
                work.push_back(s);
            }
        }
    }
    work = seeds;
    while (!work.empty()) {
        int j = work.back();
        work.pop_back();
        for (int p : pred[static_cast<size_t>(j)]) {
            if (!inB[static_cast<size_t>(p)]) {
                inB[static_cast<size_t>(p)] = 1;
                work.push_back(p);
            }
        }
    }

    std::vector<LoweredInsn> prefix, core, suffix;
    for (int j = 0; j < n; ++j) {
        LoweredInsn &insn = lk.body[static_cast<size_t>(j)];
        if (!inF[static_cast<size_t>(j)]) {
            insn.region = Region::Prefix;
            prefix.push_back(insn);
        } else if (inB[static_cast<size_t>(j)]) {
            insn.region = Region::Core;
            core.push_back(insn);
        } else {
            insn.region = Region::Suffix;
            suffix.push_back(insn);
        }
    }
    lk.coreBegin = static_cast<int>(prefix.size());
    lk.coreEnd = lk.coreBegin + static_cast<int>(core.size());
    lk.body.clear();
    lk.body.insert(lk.body.end(), prefix.begin(), prefix.end());
    lk.body.insert(lk.body.end(), core.begin(), core.end());
    lk.body.insert(lk.body.end(), suffix.begin(), suffix.end());
}

/**
 * Partial megastrip fusion over `blocks` blocks of `fuse` adjacent
 * full strips starting at strip `firstStrip`: for each block, run the
 * fusible prefix once across all c * fuse lanes, iterate the serial
 * core strip by strip in strict iteration order (a pointer-bumped
 * ExecCtx windows lanes [t*c, (t+1)*c) of the megastrip SoA rows;
 * scratch, cursors and phi history are deliberately NOT shifted — they
 * are per-cluster state addressed at lanes [0, c)), then run the
 * fusible suffix once across all lanes. Core strips run at their real
 * strip index, so the phi latch fires per real iteration exactly as in
 * unfused execution.
 */
void
runPartialFused(SimdBackend backend, const detail::ExecCtx &ctx,
                int64_t firstStrip, int64_t blocks, int64_t fuse)
{
    const LoweredKernel &lk = *ctx.lk;
    const int c = ctx.c;
    const int ewFused = static_cast<int>(c * fuse);
    const int nbody = static_cast<int>(lk.body.size());
    detail::ExecCtx fused = ctx;
    fused.firstRecord = firstStrip * c;
    detail::ExecCtx strip = ctx;
    for (int64_t b = 0; b < blocks; ++b) {
        if (lk.coreBegin > 0)
            detail::runSpanSimd(backend, fused, b, b + 1, ewFused, 0,
                                lk.coreBegin, /*latch=*/false);
        const int64_t s0 = firstStrip + b * fuse;
        for (int64_t t = 0; t < fuse; ++t) {
            strip.val =
                ctx.val + static_cast<size_t>(t) * static_cast<size_t>(c);
            detail::runSpanSimd(backend, strip, s0 + t, s0 + t + 1, c,
                                lk.coreBegin, lk.coreEnd,
                                /*latch=*/true);
        }
        if (lk.coreEnd < nbody)
            detail::runSpanSimd(backend, fused, b, b + 1, ewFused,
                                lk.coreEnd, nbody, /*latch=*/false);
    }
}

/** Run `blocks` blocks of `fuse` full strips from strip `firstStrip`
 *  on a SIMD backend: unfused, fully fused, or partially fused. */
void
runBlocks(SimdBackend backend, const detail::ExecCtx &ctx,
          int64_t firstStrip, int64_t blocks, int64_t fuse)
{
    if (fuse == 1) {
        detail::runSteadySimd(backend, ctx, firstStrip,
                              firstStrip + blocks, ctx.c);
    } else if (ctx.lk->fusible) {
        // No phi, so virtual iterations need not be real ones.
        detail::ExecCtx fused = ctx;
        fused.firstRecord = firstStrip * ctx.c;
        detail::runSteadySimd(backend, fused, 0, blocks,
                              static_cast<int>(ctx.c * fuse));
    } else {
        runPartialFused(backend, ctx, firstStrip, blocks, fuse);
    }
}

} // namespace

int
fusedStrips(int c, SimdBackend backend)
{
    if (backend == SimdBackend::Scalar)
        return 1;
    const int w = backend == SimdBackend::Avx2 ? 8 : 4;
    const int64_t unit = std::lcm<int64_t>(c, w);
    if (unit > 128)
        return std::max(1, 64 / c);
    return static_cast<int>(std::max<int64_t>(1, 64 / unit) * unit / c);
}

LoweredKernel
lowerKernel(const Kernel &k)
{
    kernel::validateKernel(k);

    LoweredKernel lk;
    lk.name = k.name;
    lk.nops = static_cast<int>(k.ops.size());
    lk.spWords = std::max(1, k.scratchpadWords);
    lk.nStreams = static_cast<int>(k.streams.size());

    lk.ports.reserve(k.streams.size());
    for (const kernel::StreamPort &port : k.streams) {
        LoweredKernel::PortInfo pi;
        pi.name = port.name;
        pi.isInput = port.dir == PortDir::In;
        pi.conditional = port.conditional;
        pi.recordWords = port.recordWords;
        pi.ordinal = pi.isInput ? lk.nIn++ : lk.nOut++;
        lk.ports.push_back(std::move(pi));
    }
    lk.driverOrdinal = lk.ports[static_cast<size_t>(k.lengthDriver)].ordinal;

    std::vector<int> bodyOf(k.ops.size(), -1);
    for (size_t i = 0; i < k.ops.size(); ++i) {
        const Op &op = k.ops[i];
        LoweredInsn insn;
        insn.code = op.code;
        insn.dst = static_cast<kernel::ValueId>(i);
        if (op.args.size() > 0)
            insn.a0 = op.args[0];
        if (op.args.size() > 1)
            insn.a1 = op.args[1];
        if (op.args.size() > 2)
            insn.a2 = op.args[2];
        insn.imm = op.code == Opcode::Phi ? op.init : op.imm;
        insn.field = op.field;
        insn.distance = op.distance;
        insn.lanes = laneClassOf(op.code);
        if (isa::isSrfAccess(op.code)) {
            insn.stream = op.stream;
            const auto &port = lk.ports[static_cast<size_t>(op.stream)];
            insn.ordinal = port.ordinal;
            insn.recordWords = port.recordWords;
        }
        switch (op.code) {
          case Opcode::ConstInt:
          case Opcode::ConstFloat:
          case Opcode::ClusterId:
          case Opcode::NumClusters:
            // Iteration-invariant: hoisted into the preamble. Safe
            // because the IR is SSA (no other op writes these slots)
            // and forward references are only legal to Phi ops.
            lk.preamble.push_back(insn);
            continue;
          case Opcode::Phi:
            insn.histBase = lk.histRows;
            lk.histRows += op.distance;
            lk.latches.push_back(
                {op.args[0], op.distance, insn.histBase});
            break;
          case Opcode::SbRead:
            if (std::find(lk.steadyReadOrdinals.begin(),
                          lk.steadyReadOrdinals.end(),
                          insn.ordinal) == lk.steadyReadOrdinals.end())
                lk.steadyReadOrdinals.push_back(insn.ordinal);
            break;
          default:
            break;
        }
        bodyOf[i] = static_cast<int>(lk.body.size());
        lk.body.push_back(insn);
    }

    partitionRegions(k, bodyOf, lk);
    // Fully fusible <=> the serial core is empty (no LaneClass::Scalar
    // body op seeds the carried cone).
    lk.fusible = lk.coreBegin == lk.coreEnd;
    return lk;
}

ExecResult
executeLowered(const LoweredKernel &lk, int c,
               const std::vector<StreamData> &inputs,
               SimdBackend backend, FusionPolicy fusion)
{
    SPS_ASSERT(c >= 1, "need at least one cluster");
    SPS_ASSERT(static_cast<int>(inputs.size()) == lk.nIn,
               "kernel %s expects %d inputs, got %zu", lk.name.c_str(),
               lk.nIn, inputs.size());
    for (const auto &port : lk.ports) {
        if (!port.isInput)
            continue;
        SPS_ASSERT(inputs[static_cast<size_t>(port.ordinal)]
                           .recordWords == port.recordWords,
                   "kernel %s stream %s: record width mismatch",
                   lk.name.c_str(), port.name.c_str());
    }
    if (!simdBackendSupported(backend))
        backend = bestSimdBackend();

    const int64_t driver_records =
        inputs[static_cast<size_t>(lk.driverOrdinal)].records();
    const int64_t iterations = (driver_records + c - 1) / c;

    ExecResult result;
    result.iterations = iterations;
    result.outputs.resize(static_cast<size_t>(lk.nOut));
    for (const auto &port : lk.ports) {
        if (port.isInput)
            continue;
        StreamData &out =
            result.outputs[static_cast<size_t>(port.ordinal)];
        out.recordWords = port.recordWords;
        if (!port.conditional)
            out.words.assign(static_cast<size_t>(driver_records) *
                                 static_cast<size_t>(port.recordWords),
                             Word{});
    }

    // Steady-state strips: every iteration where the driver and all
    // unconditionally-read inputs have a full strip of C records.
    int64_t steady = driver_records / c;
    for (int ord : lk.steadyReadOrdinals)
        steady = std::min(
            steady, inputs[static_cast<size_t>(ord)].records() / c);
    steady = std::min(steady, iterations);

    // Megastrip fusion (SIMD backends): treat `fuse` adjacent full
    // strips as one virtual strip of c * fuse lanes so narrow cluster
    // counts still fill whole vectors and per-iteration dispatch
    // amortizes. fusedStrips makes that width a whole number of
    // vectors for every c. For fully fusible bodies (no cross-iteration
    // state) the whole body fuses: lane l = it * c + cl of the
    // megastrip computes exactly what strip it, cluster cl computes,
    // and the only cross-lane traffic (CommPerm) stays inside each
    // c-wide sub-strip. Under FusionPolicy::Partial, bodies with a
    // loop-carried core still fuse their prefix/suffix regions and
    // serialize only the core (runPartialFused). The strips past the
    // last whole block run as one more, narrower block.
    const bool partial = !lk.fusible &&
                         fusion == FusionPolicy::Partial &&
                         lk.partiallyFusible();
    int64_t fuse = 1;
    if (steady > 1 && fusion != FusionPolicy::Off &&
        (lk.fusible || partial))
        fuse = std::min<int64_t>(fusedStrips(c, backend), steady);

    // Structure-of-arrays state: row `op`, stride adjacent lane words
    // (stride == c unfused). Scratch stays c-wide: scratchpad ops are
    // never fused.
    const size_t cw = static_cast<size_t>(c);
    const size_t stride = cw * static_cast<size_t>(fuse);
    std::vector<Word> val(static_cast<size_t>(lk.nops) * stride);
    std::vector<Word> scratch(static_cast<size_t>(lk.spWords) * cw);
    std::vector<Word> hist(static_cast<size_t>(lk.histRows) * stride);
    std::vector<int64_t> cond_cursor(static_cast<size_t>(lk.nStreams),
                                     0);
    std::vector<int32_t> sub_base(stride);
    for (size_t l = 0; l < stride; ++l)
        sub_base[l] = static_cast<int32_t>(l - l % cw);

    const int lanes = static_cast<int>(stride);
    for (const LoweredInsn &insn : lk.preamble) {
        Word *D = val.data() + static_cast<size_t>(insn.dst) * stride;
        switch (insn.code) {
          case Opcode::ConstInt:
          case Opcode::ConstFloat:
            std::fill(D, D + lanes, insn.imm);
            break;
          case Opcode::ClusterId:
            // Fused lanes repeat the cluster pattern every c words.
            for (int l = 0; l < lanes; ++l)
                D[l] = Word::fromInt(l % c);
            break;
          case Opcode::NumClusters:
            std::fill(D, D + lanes, Word::fromInt(c));
            break;
          default:
            panic("lowered execute: unexpected opcode %s in preamble",
                  std::string(isa::mnemonic(insn.code)).c_str());
        }
    }

    detail::ExecCtx ctx;
    ctx.lk = &lk;
    ctx.c = c;
    ctx.stride = stride;
    ctx.driverRecords = driver_records;
    ctx.inputs = &inputs;
    ctx.result = &result;
    ctx.val = val.data();
    ctx.scratch = scratch.data();
    ctx.hist = hist.data();
    ctx.condCursor = cond_cursor.data();
    ctx.subStripBase = sub_base.data();

    const int nbody = static_cast<int>(lk.body.size());
    if (backend == SimdBackend::Scalar) {
        detail::runSpanScalar<false>(ctx, 0, steady, c, 0, nbody,
                                     /*latch=*/true);
    } else {
        const int64_t blocks = steady / fuse;
        const int64_t rest = steady % fuse;
        runBlocks(backend, ctx, 0, blocks, fuse);
        if (rest > 0)
            runBlocks(backend, ctx, blocks * fuse, 1, rest);
    }
    detail::runSpanScalar<true>(ctx, steady, iterations, c, 0, nbody,
                                /*latch=*/true);
    return result;
}

const LoweredKernel &
LoweredCache::get(const Kernel &k)
{
    const uint64_t key = kernel::fingerprint(k);
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = map_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // Lower outside the map lock so distinct kernels lower in
    // parallel; call_once makes concurrent same-kernel requests block
    // on the single winner.
    bool lowered = false;
    std::call_once(entry->once, [&] {
        entry->lk = lowerKernel(k);
        lowered = true;
    });
    if (lowered)
        misses_.fetch_add(1, std::memory_order_relaxed);
    else
        hits_.fetch_add(1, std::memory_order_relaxed);
    return entry->lk;
}

LoweredCache::Counters
LoweredCache::counters() const
{
    return Counters{hits_.load(std::memory_order_relaxed),
                    misses_.load(std::memory_order_relaxed)};
}

size_t
LoweredCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

void
LoweredCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

LoweredCache &
LoweredCache::global()
{
    static LoweredCache cache;
    return cache;
}

} // namespace sps::interp
