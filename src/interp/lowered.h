/**
 * @file
 * Lowered SIMD execution engine: a one-time lowering pass from
 * kernel::Kernel to a flat, cache-friendly LoweredKernel, plus an
 * executor that stores all values as one contiguous
 * structure-of-arrays buffer (val[op * C + cluster]) so each opcode's
 * per-cluster loop is a branch-free sweep over adjacent words.
 *
 * Lowering pre-resolves everything the interpreter's inner loop used
 * to recompute per op per iteration: stream indices become
 * input/output ordinals, phi history becomes ring-row offsets into a
 * single shared buffer, argument lists become fixed slots, and
 * iteration-invariant ops (ConstInt/ConstFloat/ClusterId/NumClusters)
 * move to a preamble executed once. Execution splits into a
 * steady-state path over full strips of C records with no per-record
 * bounds checks and a tail path that keeps the original guarded
 * semantics, so outputs are bit-identical to the reference
 * interpreter (interp::runKernelReference) for every kernel.
 *
 * Lowered kernels are memoized in LoweredCache (keyed by the
 * structural kernel::fingerprint, thread-safe like
 * sched::ScheduleCache), so repeated runs across EvalEngine threads
 * lower and validate each kernel exactly once.
 */
#ifndef SPS_INTERP_LOWERED_H
#define SPS_INTERP_LOWERED_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/interpreter.h"
#include "interp/simd.h"
#include "kernel/ir.h"

namespace sps::interp {

/**
 * Per-op lane-width legality for the SIMD steady-state executors,
 * emitted by lowering. Ops that are not legal at a tier's width split
 * the strip back to the shared scalar span executor.
 */
enum class LaneClass : uint8_t
{
    /** Elementwise: vectorizes at any lane width. */
    Vector = 0,
    /** Elementwise but needs the wide tier's ISA (FFloor: roundps is
     *  SSE4.1+, absent from the SSE2 baseline). */
    VectorWide = 1,
    /** Unconditional stream access: block copies / gathers. */
    Stream = 2,
    /** Per-iteration fill that does not block megastrip fusion
     *  (LoopIndex; also the preamble's iteration-invariant ops). */
    Broadcast = 3,
    /** Cross-iteration or cursor/scratchpad state: always scalar,
     *  blocks fusion (Phi, conditional streams, scratchpad). */
    Scalar = 4,
    /** Cross-lane but confined to one iteration's c-wide strip
     *  (CommPerm): legal under megastrip fusion by exchanging within
     *  each c-wide sub-strip, and vectorized on the wide tier as an
     *  in-register permute when c divides the vector width, as a
     *  gather from each lane's sub-strip otherwise. */
    Cross = 5,
};

/** The LaneClass lowering assigns to `code`, derived from its
 *  isa::FuClass. */
LaneClass laneClassOf(isa::Opcode code);

/**
 * Dependence-cone region of a body op, emitted by lowering (the
 * partial-megastrip-fusion partition). The loop-carried ops
 * (LaneClass::Scalar: phi, conditional streams, scratchpad) seed two
 * slices over the body's dataflow + side-effect-token + phi-latch
 * edges: the forward slice F (ops transitively reading carried state)
 * and the backward slice B (ops carried state transitively reads).
 *
 *   Prefix  = not in F   — depends on nothing carried; safe to run
 *                          megastrip-fused across strips *before* any
 *                          of the block's serial cores.
 *   Core    = F ∩ B      — the carried chain's cone; must run strip
 *                          by strip in strict iteration order.
 *   Suffix  = F \ B      — reads core results but feeds nothing
 *                          carried (no cross-iteration out-edges);
 *                          safe to fuse *after* the block's cores.
 *
 * Prefix-then-core-then-suffix is a topological order of the body, so
 * lowering stores the body already partitioned ([prefix|core|suffix],
 * program order preserved within each region) and execution in that
 * order is bit-identical to program order.
 */
enum class Region : uint8_t
{
    Prefix = 0,
    Core = 1,
    Suffix = 2,
};

/** One lowered instruction: opcode plus fully pre-resolved operands. */
struct LoweredInsn
{
    isa::Opcode code = isa::Opcode::ConstInt;
    /** Destination value slot (row `dst` of the SoA value buffer). */
    kernel::ValueId dst = 0;
    /** Argument value slots (kNoValue when unused). */
    kernel::ValueId a0 = kernel::kNoValue;
    kernel::ValueId a1 = kernel::kNoValue;
    kernel::ValueId a2 = kernel::kNoValue;
    /** Constant payload, or the Phi init value. */
    isa::Word imm;
    /** Kernel stream index for Sb* ops (conditional cursor key). */
    int32_t stream = -1;
    /** Pre-resolved input/output ordinal for Sb* ops. */
    int32_t ordinal = -1;
    /** Record field for SbRead/SbWrite. */
    int32_t field = 0;
    /** Record width of the accessed stream. */
    int32_t recordWords = 1;
    /** Phi dependence distance. */
    int32_t distance = 0;
    /** Phi: first ring row in the shared history buffer. */
    int32_t histBase = 0;
    /** Lane-width legality for the SIMD executors. */
    LaneClass lanes = LaneClass::Scalar;
    /** Dependence-cone region (partial megastrip fusion). */
    Region region = Region::Core;
};

/**
 * A kernel lowered to flat execution form. Independent of the cluster
 * count C: per-run buffers are sized C-wide at execution time, so one
 * lowering serves every design point of a sweep.
 */
struct LoweredKernel
{
    std::string name;
    int nops = 0;
    /** Scratchpad words per cluster (>= 1 so the buffer is non-empty). */
    int spWords = 1;
    /** Total phi-history ring rows across all phis. */
    int histRows = 0;
    int nStreams = 0;
    int nIn = 0;
    int nOut = 0;
    /** Input ordinal of the length-driving stream. */
    int driverOrdinal = 0;

    /** Iteration-invariant ops, executed once before the loop. */
    std::vector<LoweredInsn> preamble;
    /** Loop body, executed every iteration in program order. */
    std::vector<LoweredInsn> body;

    /** End-of-iteration phi latch: hist row <- value of `src`. */
    struct PhiLatch
    {
        kernel::ValueId src = 0;
        int32_t distance = 1;
        int32_t histBase = 0;
    };
    std::vector<PhiLatch> latches;

    /** Stream ports in kernel stream order. */
    struct PortInfo
    {
        std::string name;
        bool isInput = true;
        bool conditional = false;
        int recordWords = 1;
        int ordinal = 0;
    };
    std::vector<PortInfo> ports;

    /**
     * Input ordinals read by unconditional SbRead ops; together with
     * the driver length they bound the steady-state strip count.
     */
    std::vector<int> steadyReadOrdinals;

    /**
     * Region split points: body is stored partitioned as
     * [0, coreBegin) prefix, [coreBegin, coreEnd) serial core,
     * [coreEnd, body.size()) suffix. The partition is a property of
     * the kernel's dataflow alone — independent of backend, fusion
     * policy, and cluster count — so one LoweredCache entry serves
     * every execution configuration.
     */
    int coreBegin = 0;
    int coreEnd = 0;

    /**
     * True when no body op is LaneClass::Scalar (the core is empty):
     * the body has no cross-iteration state, so adjacent full strips
     * can fuse into one megastrip of c * fuse virtual lanes to
     * amortize dispatch. Cross-lane CommPerm does not block fusion:
     * each c-wide sub-strip exchanges within itself.
     */
    bool fusible = false;

    /** True when the body has a loop-carried core but also a nonempty
     *  fusible prefix and/or suffix: partial megastrip fusion can run
     *  the off-chain regions fused and serialize only the cone. */
    bool
    partiallyFusible() const
    {
        return coreEnd > coreBegin &&
               (coreBegin > 0 ||
                coreEnd < static_cast<int>(body.size()));
    }

    /**
     * Fraction of steady-state body ops that execute in fused
     * (prefix/suffix) regions when megastrip fusion engages under
     * `policy`: 1 for fully fusible bodies, the off-cone fraction for
     * partially fusible ones, 0 when fusion cannot engage.
     */
    double
    fusedOpFraction(FusionPolicy policy) const
    {
        if (body.empty() || policy == FusionPolicy::Off)
            return 0.0;
        if (fusible)
            return 1.0;
        if (!partiallyFusible())
            return 0.0;
        return 1.0 - static_cast<double>(coreEnd - coreBegin) /
                         static_cast<double>(body.size());
    }
};

/**
 * Strips per megastrip block at `c` clusters on `backend`. The fused
 * width c * fusedStrips(c, backend) is the largest multiple of
 * lcm(c, W) not above 64 lanes, and at least one lcm, W being the
 * backend's vector width: every op of a whole block then runs whole
 * vectors. When lcm(c, W) exceeds 128 lanes the block keeps
 * max(1, 64 / c) strips. The scalar backend never fuses (1).
 */
int fusedStrips(int c, SimdBackend backend);

/** Lower `k` (validating it once). Uncached; see LoweredCache. */
LoweredKernel lowerKernel(const kernel::Kernel &k);

/**
 * Execute a lowered kernel on `c` clusters. An unsupported backend
 * falls back to bestSimdBackend(). Results are bit-identical across
 * every backend x fusion-policy combination.
 */
ExecResult executeLowered(const LoweredKernel &lk, int c,
                          const std::vector<StreamData> &inputs,
                          SimdBackend backend = bestSimdBackend(),
                          FusionPolicy fusion = FusionPolicy::Partial);

/**
 * Thread-safe memoized lowering cache keyed by the structural kernel
 * fingerprint. get() may be called concurrently from any number of
 * threads; a given kernel is lowered exactly once (concurrent
 * requests block on the winner). Returned references stay valid until
 * clear(), which must not race in-flight get() calls or outstanding
 * references.
 */
class LoweredCache
{
  public:
    struct Counters
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    /** The lowered form of `k`, lowering on first use. */
    const LoweredKernel &get(const kernel::Kernel &k);

    Counters counters() const;
    size_t size() const;

    /** Drop all entries and reset the counters (not concurrency-safe
     *  against in-flight get() calls or live references). */
    void clear();

    /** The process-wide cache shared by all interpreter callers. */
    static LoweredCache &global();

  private:
    struct Entry
    {
        std::once_flag once;
        LoweredKernel lk;
    };

    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_ptr<Entry>> map_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace sps::interp

#endif // SPS_INTERP_LOWERED_H
