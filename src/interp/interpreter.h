/**
 * @file
 * Functional SIMD interpreter for kernels: executes a kernel's
 * dataflow graph over C clusters on real data, faithfully modeling
 * SRF stream access order (cluster c reads record i*C + c on
 * iteration i), intercluster COMM exchange, per-cluster scratchpads,
 * loop-carried values, and conditional stream compaction/expansion.
 *
 * The interpreter is the oracle for the test suite (kernel outputs are
 * checked against independent reference implementations) and supplies
 * functional results for the example applications. Timing comes from
 * the scheduler (sched::compileKernel), not from here, mirroring the
 * paper's split between static kernel analysis and stream-level
 * simulation.
 */
#ifndef SPS_INTERP_INTERPRETER_H
#define SPS_INTERP_INTERPRETER_H

#include <vector>

#include "interp/simd.h"
#include "isa/value.h"
#include "kernel/ir.h"

namespace sps::interp {

/** A stream's contents: records of recordWords words each. */
struct StreamData
{
    int recordWords = 1;
    std::vector<isa::Word> words;

    int64_t
    records() const
    {
        return static_cast<int64_t>(words.size()) / recordWords;
    }

    /** Convenience: build a single-word-record stream of floats. */
    static StreamData fromFloats(const std::vector<float> &v,
                                 int record_words = 1);
    /** Convenience: build a single-word-record stream of ints. */
    static StreamData fromInts(const std::vector<int32_t> &v,
                               int record_words = 1);

    std::vector<float> toFloats() const;
    std::vector<int32_t> toInts() const;
};

/** Outputs of one kernel execution. */
struct ExecResult
{
    /** Output streams, in kernel output-port order. */
    std::vector<StreamData> outputs;
    /** Inner-loop iterations executed. */
    int64_t iterations = 0;
};

/**
 * Execute `k` on `c` clusters.
 *
 * Runs through the lowered execution engine (interp/lowered.h): the
 * kernel is lowered once into a flat instruction array (memoized in
 * the process-wide LoweredCache) and executed over contiguous
 * structure-of-arrays cluster state. Outputs are bit-identical to
 * runKernelReference() under every backend x fusion-policy
 * combination.
 *
 * @param inputs input streams in kernel input-port order; each must
 *        match its port's record width.
 * @param backend steady-state SIMD tier; an unsupported one falls
 *        back to bestSimdBackend().
 * @param fusion megastrip-fusion policy.
 */
ExecResult runKernel(const kernel::Kernel &k, int c,
                     const std::vector<StreamData> &inputs,
                     SimdBackend backend = bestSimdBackend(),
                     FusionPolicy fusion = FusionPolicy::Partial);

/**
 * Reference interpreter: the original op-at-a-time engine that walks
 * the kernel IR directly, re-decoding each op every iteration. Kept
 * as the semantic oracle for the lowered engine's equivalence suite
 * and for throughput comparisons; new callers should use runKernel().
 */
ExecResult runKernelReference(const kernel::Kernel &k, int c,
                              const std::vector<StreamData> &inputs);

} // namespace sps::interp

#endif // SPS_INTERP_INTERPRETER_H
