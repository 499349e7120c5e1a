/**
 * @file
 * The stream controller: issues stream-level operations in program
 * order through a finite scoreboard, resolving dependences and
 * resource conflicts (memory system, microcontroller), and tracking
 * SRF residency. This is the engine behind StreamProcessor::run().
 *
 * Observability: every run fills SimResult::counters (cycle breakdown,
 * issue stalls, SRF traffic, DRAM behaviour); attaching a
 * trace::Tracer through RunOptions additionally records per-component
 * events, and a FunctionalContext makes kernel calls execute
 * functionally through the interpreter.
 */
#ifndef SPS_SIM_STREAM_CONTROLLER_H
#define SPS_SIM_STREAM_CONTROLLER_H

#include <functional>

#include "mem/stream_mem.h"
#include "sim/functional.h"
#include "sim/microcontroller.h"
#include "sim/stats.h"
#include "srf/allocator.h"
#include "stream/deps.h"
#include "stream/program.h"
#include "trace/tracer.h"

namespace sps::sim {

/** Callback type: compiled-kernel lookup provided by the processor.
 *  executeProgram calls it once per entry of the program's kernels(),
 *  before the first op issues; the references must outlive the run. */
using CompileFn =
    std::function<const sched::CompiledKernel &(const kernel::Kernel &)>;

/** Scoreboard execution parameters. */
struct ControllerConfig
{
    int clusters = 8;
    int alusPerCluster = 5;
    int hostIssueCycles = 16;
    int scoreboardDepth = 16;
    /** Peak SRF bandwidth (words/cycle), for saturation accounting;
     *  <= 0 disables the srfBwStallCycles counter. */
    double srfPeakWordsPerCycle = 0.0;
};

/** Optional per-run observability hooks. */
struct RunOptions
{
    /** Event tracer; null (the default) records nothing. */
    trace::Tracer *tracer = nullptr;
    /** Functional stream contents; null runs timing-only, otherwise
     *  each kernel call also runs through interp::runKernel. */
    FunctionalContext *functional = nullptr;
};

/**
 * Execute a program against the given memory system, microcontroller
 * model, and SRF allocator. Returns timing and statistics. The memory
 * system's channel state is reset (beginProgram) and then evolves
 * across the run: transfers are submitted at issue and resolved
 * jointly when a dependent op or the scoreboard needs a completion
 * time, so overlapping transfers contend for channels and row buffers.
 */
SimResult executeProgram(const stream::StreamProgram &prog,
                         const ControllerConfig &cfg,
                         mem::StreamMemSystem &mem_sys,
                         Microcontroller &uc, srf::Allocator &alloc,
                         const CompileFn &compile,
                         const RunOptions &opts = {});

} // namespace sps::sim

#endif // SPS_SIM_STREAM_CONTROLLER_H
