#include "sched/mii.h"

#include <algorithm>
#include <array>

#include "common/log.h"

namespace sps::sched {

using isa::FuClass;

int
resMii(const DepGraph &g, const MachineModel &m)
{
    // Sum the issue-slot demand per class (non-pipelined operations
    // occupy issueInterval slots) and divide by the unit count.
    std::array<int, isa::kNumFuClasses> demand{};
    for (const DepNode &n : g.nodes)
        demand[static_cast<size_t>(n.cls)] += n.issueInterval;
    int mii = 1;
    for (size_t c = 0; c < isa::kNumFuClasses; ++c) {
        const int slots = demand[c];
        if (slots == 0)
            continue;
        int units = m.unitCount(static_cast<FuClass>(c));
        SPS_ASSERT(units >= 1, "no units for class %d",
                   static_cast<int>(c));
        mii = std::max(mii, (slots + units - 1) / units);
    }
    return mii;
}

namespace {

/**
 * Feasibility of an II with respect to recurrences: no cycle may have
 * total latency exceeding II * total distance. Checked with a
 * Bellman-Ford-style relaxation on edge weights (lat - II*dist);
 * a positive-weight cycle means infeasible.
 */
bool
recurrenceFeasible(const DepGraph &g, int ii)
{
    int n = g.nodeCount();
    std::vector<int64_t> dist(static_cast<size_t>(n), 0);
    for (int iter = 0; iter <= n; ++iter) {
        bool changed = false;
        for (const DepEdge &e : g.edges) {
            int64_t w = e.latency - static_cast<int64_t>(ii) * e.distance;
            if (dist[e.from] + w > dist[e.to]) {
                dist[e.to] = dist[e.from] + w;
                changed = true;
            }
        }
        if (!changed)
            return true;
    }
    // Still relaxing after n iterations: positive cycle.
    return false;
}

} // namespace

int
recMii(const DepGraph &g)
{
    // Only loop-carried edges can close cycles; without any, RecMII=1.
    bool has_back_edge = false;
    int64_t lat_sum = 1;
    for (const DepEdge &e : g.edges) {
        if (e.distance > 0)
            has_back_edge = true;
        lat_sum += e.latency;
    }
    if (!has_back_edge)
        return 1;
    int lo = 1;
    int hi = static_cast<int>(std::min<int64_t>(lat_sum, 1 << 20));
    SPS_ASSERT(recurrenceFeasible(g, hi),
               "recurrence infeasible even at II=%d", hi);
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (recurrenceFeasible(g, mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

int
minII(const DepGraph &g, const MachineModel &m)
{
    return std::max(resMii(g, m), recMii(g));
}

} // namespace sps::sched
