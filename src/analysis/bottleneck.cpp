#include "analysis/bottleneck.h"

namespace sps::analysis {

BottleneckReport
attributeBottleneck(const std::vector<sim::OpInterval> &timeline,
                    const std::vector<CycleInterval> &memBusy,
                    const std::vector<CycleInterval> &ucBusy,
                    int64_t cycles)
{
    BottleneckReport r;
    r.valid = true;

    // Busy attribution: microcontroller-busy cycles are kernel-bound
    // whether or not memory overlapped them; memory-only cycles are
    // memory-bound. This matches the SimCounters cycle breakdown
    // (kernelBound == kernelOnly + overlap, memoryBound == memOnly).
    // Memory-only is the busy union less the microcontroller's share:
    // |mem \ uc| = |mem u uc| - |uc|.
    std::vector<CycleInterval> busy = unionIntervals(memBusy, ucBusy);
    r.kernelBoundCycles = intervalLength(ucBusy);
    r.memoryBoundCycles = intervalLength(busy) - r.kernelBoundCycles;

    // Quiet cycles: the complement of all busy intervals in [0, cycles).
    std::vector<CycleInterval> idle =
        subtractIntervals({{0, cycles}}, busy);

    // Per-op wait windows from the issue metadata, each class merged
    // into its union as the timeline is read (in issue order every
    // window starts no earlier than the one before).
    IntervalUnion sb, host, dep;
    for (const sim::OpInterval &op : timeline) {
        sb.add({op.sbWaitStart, op.issueStart});
        host.add({op.issueStart, op.issueEnd});
        dep.add({op.issueEnd, op.readyCycle});
    }

    // Attribute quiet cycles by priority; each window class claims its
    // intersection with the still-unattributed idle set.
    auto claim = [&idle](IntervalUnion &windows) {
        std::vector<CycleInterval> got =
            intersectIntervals(idle, windows.take());
        idle = subtractIntervals(idle, got);
        return intervalLength(got);
    };
    r.scoreboardCycles = claim(sb);
    r.dependenceCycles = claim(dep);
    r.hostIssueCycles = claim(host);
    r.idleCycles = intervalLength(idle);
    return r;
}

} // namespace sps::analysis
