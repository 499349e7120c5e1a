#include "analysis/bottleneck.h"

#include <utility>

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

    // Per-op wait windows from the issue metadata.
    std::vector<CycleInterval> sb, host, dep;
    sb.reserve(timeline.size());
    host.reserve(timeline.size());
    dep.reserve(timeline.size());
    for (const sim::OpInterval &op : timeline) {
        if (op.issueStart > op.sbWaitStart)
            sb.push_back({op.sbWaitStart, op.issueStart});
        if (op.issueEnd > op.issueStart)
            host.push_back({op.issueStart, op.issueEnd});
        if (op.readyCycle > op.issueEnd)
            dep.push_back({op.issueEnd, op.readyCycle});
    }

    // Attribute quiet cycles by priority; each window class claims its
    // intersection with the still-unattributed idle set.
    auto claim = [&idle](std::vector<CycleInterval> windows) {
        std::vector<CycleInterval> w =
            mergeIntervals(std::move(windows));
        std::vector<CycleInterval> got = intersectIntervals(idle, w);
        idle = subtractIntervals(idle, got);
        return intervalLength(got);
    };
    r.scoreboardCycles = claim(std::move(sb));
    r.dependenceCycles = claim(std::move(dep));
    r.hostIssueCycles = claim(std::move(host));
    r.idleCycles = intervalLength(idle);
    return r;
}

} // namespace sps::analysis
