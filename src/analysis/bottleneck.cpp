#include "analysis/bottleneck.h"

#include <utility>

namespace sps::analysis {

BottleneckReport
attributeBottleneck(const std::vector<sim::OpInterval> &timeline,
                    std::vector<CycleInterval> memBusy,
                    std::vector<CycleInterval> ucBusy, int64_t cycles)
{
    BottleneckReport r;
    r.valid = true;

    std::vector<CycleInterval> mem = mergeIntervals(std::move(memBusy));
    std::vector<CycleInterval> uc = mergeIntervals(std::move(ucBusy));

    // Busy attribution: microcontroller-busy cycles are kernel-bound
    // whether or not memory overlapped them; memory-only cycles are
    // memory-bound. This matches the SimCounters cycle breakdown
    // (kernelBound == kernelOnly + overlap, memoryBound == memOnly).
    r.kernelBoundCycles = intervalLength(uc);
    r.memoryBoundCycles =
        intervalLength(mem) - intervalLength(intersectIntervals(mem, uc));

    // Quiet cycles: the complement of all busy intervals in [0, cycles).
    std::vector<CycleInterval> busy;
    busy.reserve(mem.size() + uc.size());
    busy.insert(busy.end(), mem.begin(), mem.end());
    busy.insert(busy.end(), uc.begin(), uc.end());
    std::vector<CycleInterval> idle =
        subtractIntervals({{0, cycles}}, mergeIntervals(std::move(busy)));

    // Per-op wait windows from the issue metadata.
    std::vector<CycleInterval> sb, host, dep;
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
