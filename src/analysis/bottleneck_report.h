/**
 * @file
 * Per-run bottleneck attribution: every cycle of a simulated run
 * assigned to exactly one category, producing the stall waterfall the
 * perf work optimizes against. Filled by analysis::attributeBottleneck
 * (analysis/bottleneck.h) from the op timeline, the per-op issue
 * metadata, and the exact busy-interval sets of the run.
 *
 * Categories (they sum exactly to SimResult::cycles):
 *  - kernelBound:  the microcontroller was executing a kernel (alone
 *                  or overlapped with memory) -- more ALUs or a better
 *                  schedule is the only way to shrink these.
 *  - memoryBound:  only the memory pins were busy -- DRAM bandwidth
 *                  limits these cycles.
 *  - dependence:   nothing was busy; the next op had issued but was
 *                  waiting for a predecessor's completion (typically
 *                  trailing memory latency after the pins went quiet).
 *  - scoreboard:   nothing was busy; issue was blocked on a full
 *                  scoreboard waiting for an in-flight op to retire.
 *  - hostIssue:    nothing was busy; the host channel was still
 *                  serializing the next stream instruction.
 *  - idle:         remaining unattributed quiet cycles.
 *
 * This header is pure data so sim/stats.h can embed a report on every
 * SimResult without a library dependency.
 */
#ifndef SPS_ANALYSIS_BOTTLENECK_REPORT_H
#define SPS_ANALYSIS_BOTTLENECK_REPORT_H

#include <cstdint>

#include "common/fields.h"

namespace sps::analysis {

/** The stall-attribution waterfall of one run. */
struct BottleneckReport
{
    /** False until attributeBottleneck filled the report. */
    bool valid = false;

    int64_t kernelBoundCycles = 0;
    int64_t memoryBoundCycles = 0;
    int64_t dependenceCycles = 0;
    int64_t scoreboardCycles = 0;
    int64_t hostIssueCycles = 0;
    int64_t idleCycles = 0;

    /** Total cycles attributed (== SimResult::cycles). */
    int64_t
    totalCycles() const
    {
        return kernelBoundCycles + memoryBoundCycles +
               dependenceCycles + scoreboardCycles + hostIssueCycles +
               idleCycles;
    }

    /**
     * The limiting resource: the hardware resource behind the largest
     * category. Ties break toward the earlier category in waterfall
     * order (kernel, memory, dependence, scoreboard, host, idle).
     */
    const char *
    limitingResource() const
    {
        const int64_t v[] = {kernelBoundCycles,  memoryBoundCycles,
                             dependenceCycles,   scoreboardCycles,
                             hostIssueCycles,    idleCycles};
        static const char *kNames[] = {
            "cluster ALUs (kernel-bound)",
            "DRAM bandwidth (memory-bound)",
            "dependences / memory latency",
            "scoreboard depth",
            "host issue bandwidth",
            "idle",
        };
        int best = 0;
        for (int i = 1; i < 6; ++i)
            if (v[i] > v[best])
                best = i;
        return kNames[best];
    }

    double
    fraction(int64_t part) const
    {
        int64_t t = totalCycles();
        return t > 0 ? static_cast<double>(part) / t : 0.0;
    }
};

template <FieldsOf<BottleneckReport> S, typename F>
void
forEachField(S &b, F &&f)
{
    f("valid", b.valid);
    f("kernel_bound_cycles", b.kernelBoundCycles);
    f("memory_bound_cycles", b.memoryBoundCycles);
    f("dependence_cycles", b.dependenceCycles);
    f("scoreboard_cycles", b.scoreboardCycles);
    f("host_issue_cycles", b.hostIssueCycles);
    f("idle_cycles", b.idleCycles);
}

} // namespace sps::analysis

#endif // SPS_ANALYSIS_BOTTLENECK_REPORT_H
