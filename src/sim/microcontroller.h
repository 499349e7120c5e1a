/**
 * @file
 * Microcontroller timing model: cycles charged for one kernel call.
 * Covers the per-call overheads the paper attributes short-stream
 * slowdowns to (Section 5.3): microcontroller and cluster pipeline
 * fill, software-pipelining priming, and loop prologue/epilogue, plus
 * a one-time microcode load per kernel.
 */
#ifndef SPS_SIM_MICROCONTROLLER_H
#define SPS_SIM_MICROCONTROLLER_H

#include <cstdint>
#include <map>
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
    /**
     * Cycles per VLIW instruction when loading microcode. Zero by
     * default: kernels are loaded before they are used (Section
     * 3.1.2), overlapping earlier execution. Set nonzero to study
     * cold-start behaviour.
     */
    int loadCyclesPerInstruction = 0;
};

template <FieldsOf<UcConfig> S, typename F>
void
forEachField(S &u, F &&f)
{
    f("pipe_fill_cycles", u.pipeFillCycles);
    f("load_cycles_per_instruction", u.loadCyclesPerInstruction);
}

/**
 * Kernel-call timing: tracks which kernels are already resident in
 * microcode storage.
 */
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
        /** Fixed overhead: pipeline fill plus any microcode load. */
        int64_t overheadCycles = 0;
        /** Inner-loop iterations executed. */
        int64_t iterations = 0;
        /** True if this call paid the first-use microcode load. */
        bool microcodeLoaded = false;
    };

    /**
     * Cycles for one call of a compiled kernel over `records` stream
     * records. Includes the first-use microcode load.
     */
    int64_t callCycles(const std::string &kernel_name,
                       const sched::CompiledKernel &ck, int64_t records);

    /**
     * Like callCycles() but reports the timing breakdown, and (when a
     * tracer is attached) records the call as a "kernel" event on the
     * clusters track starting at `start`.
     */
    CallTiming call(const std::string &kernel_name,
                    const sched::CompiledKernel &ck, int64_t records,
                    int64_t start = 0,
                    trace::Tracer *tracer = nullptr, int op_id = -1);

    /** Forget resident kernels (new program). */
    void reset() { resident_.clear(); }

  private:
    UcConfig cfg_;
    int clusters_;
    std::map<std::string, bool> resident_;
};

} // namespace sps::sim

#endif // SPS_SIM_MICROCONTROLLER_H
