/**
 * @file
 * Microcontroller timing model: cycles charged for one kernel call.
 * Covers the per-call overheads the paper attributes short-stream
 * slowdowns to (Section 5.3): microcontroller and cluster pipeline
 * fill, software-pipelining priming, and loop prologue/epilogue.
 * Microcode loads cost nothing: kernels are loaded before they are
 * used (Section 3.1.2), overlapping earlier execution.
 */
#ifndef SPS_SIM_MICROCONTROLLER_H
#define SPS_SIM_MICROCONTROLLER_H

#include <cstdint>
#include <string>

#include "common/fields.h"
#include "sched/kernel_perf.h"
#include "trace/tracer.h"

namespace sps::sim {

/** Fixed per-call overheads. */
struct UcConfig
{
    /** Microcontroller + cluster pipeline fill per kernel call. */
    int pipeFillCycles = 8;
};

template <FieldsOf<UcConfig> S, typename F>
void
forEachField(S &u, F &&f)
{
    f("pipe_fill_cycles", u.pipeFillCycles);
}

/** Kernel-call timing. */
class Microcontroller
{
  public:
    explicit Microcontroller(UcConfig cfg, int clusters)
        : cfg_(cfg), clusters_(clusters)
    {}

    /** Timing of one kernel call, split into overhead and loop time. */
    struct CallTiming
    {
        /** Total cycles charged for the call. */
        int64_t cycles = 0;
        /** Fixed overhead: the pipeline fill. */
        int64_t overheadCycles = 0;
        /** Inner-loop iterations executed. */
        int64_t iterations = 0;
    };

    /**
     * Timing of one call of a compiled kernel over `records` stream
     * records; when a tracer is attached, also records the call as a
     * "kernel" event on the clusters track starting at `start`.
     */
    CallTiming call(const std::string &kernel_name,
                    const sched::CompiledKernel &ck, int64_t records,
                    int64_t start = 0,
                    trace::Tracer *tracer = nullptr, int op_id = -1);

  private:
    UcConfig cfg_;
    int clusters_;
};

} // namespace sps::sim

#endif // SPS_SIM_MICROCONTROLLER_H
