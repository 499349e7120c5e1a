#include "sched/mii.h"

#include <algorithm>
#include <array>
#include <stdexcept>

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

/**
 * The smallest II in [lo, hi] at which the recurrences fit, by binary
 * search (feasibility is monotone in II). Throws std::runtime_error
 * unless they fit at hi: a request's params can stretch latencies
 * past any II the search may try.
 */
int
searchRecurrence(const DepGraph &g, int lo, int hi)
{
    if (!recurrenceFeasible(g, hi))
        throw std::runtime_error(strformat(
            "recurrence infeasible even at II=%d", hi));
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (recurrenceFeasible(g, mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/** The largest II the recurrence search tries: past the latency sum
 *  every recurrence fits, and 2^20 bounds the schedule a request can
 *  make. 0 when no loop-carried edge can close a cycle. */
int
recurrenceCap(const DepGraph &g)
{
    bool has_back_edge = false;
    int64_t lat_sum = 1;
    for (const DepEdge &e : g.edges) {
        if (e.distance > 0)
            has_back_edge = true;
        lat_sum += e.latency;
    }
    return has_back_edge
               ? static_cast<int>(std::min<int64_t>(lat_sum, 1 << 20))
               : 0;
}

} // namespace

int
recMii(const DepGraph &g)
{
    // Only loop-carried edges can close cycles; without any, RecMII=1.
    const int hi = recurrenceCap(g);
    return hi == 0 ? 1 : searchRecurrence(g, 1, hi);
}

int
minII(const DepGraph &g, const MachineModel &m)
{
    // One check at ResMII settles max(ResMII, RecMII) whenever the
    // recurrences fit there; only otherwise is RecMII searched for,
    // above ResMII.
    const int res = resMii(g, m);
    const int hi = recurrenceCap(g);
    if (hi == 0)
        return res;
    const int at = std::min(res, hi);
    if (recurrenceFeasible(g, at))
        return res;
    return searchRecurrence(g, at + 1, hi);
}

} // namespace sps::sched
