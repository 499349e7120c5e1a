#include "sched/list_sched.h"

#include <algorithm>
#include <array>
#include <ranges>
#include <span>

#include "common/log.h"

namespace sps::sched {

using isa::FuClass;

ListSchedule
listSchedule(const DepGraph &g, const MachineModel &m)
{
    const int n = g.nodeCount();
    ListSchedule out;
    out.issueCycle.assign(static_cast<size_t>(n), -1);
    if (n == 0)
        return out;

    // Critical-path priorities over the same-iteration subgraph, by
    // relaxation. The edges come by ascending `to` and a height flows
    // back to `from`, so visiting them last first settles them in one
    // pass; any order reaches the same fixed point.
    std::vector<int64_t> height(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i)
        height[i] = g.nodes[i].latency;
    for (int iter = 0; iter < n; ++iter) {
        bool changed = false;
        for (const DepEdge &e : std::views::reverse(g.edges)) {
            if (e.distance != 0)
                continue;
            int64_t cand = height[e.to] + e.latency;
            if (cand > height[e.from]) {
                height[e.from] = cand;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    std::vector<int> remaining_preds(static_cast<size_t>(n), 0);
    for (const DepEdge &e : g.edges)
        if (e.distance == 0)
            ++remaining_preds[e.to];

    // Next free cycle of each unit instance: class c's units start at
    // first_unit[c].
    std::array<int, isa::kNumFuClasses> first_unit{};
    int total_units = 0;
    for (size_t c = 0; c < isa::kNumFuClasses; ++c) {
        first_unit[c] = total_units;
        total_units += m.unitCount(static_cast<FuClass>(c));
    }
    std::vector<int> busy(static_cast<size_t>(total_units), 0);

    // Ready nodes in a heap whose top is the greatest height, the
    // lowest id among equals. A node only ever becomes ready, so the
    // top is the first ready node of that order.
    auto later = [&](int a, int b) {
        if (height[a] != height[b])
            return height[a] < height[b];
        return a > b;
    };
    std::vector<int> ready;
    for (int i = 0; i < n; ++i)
        if (remaining_preds[i] == 0)
            ready.push_back(i);
    std::make_heap(ready.begin(), ready.end(), later);

    std::vector<int> ready_at(static_cast<size_t>(n), 0);
    for (int placed = 0; placed < n; ++placed) {
        SPS_ASSERT(!ready.empty(),
                   "list scheduler deadlock (dependence cycle)");
        std::pop_heap(ready.begin(), ready.end(), later);
        int v = ready.back();
        ready.pop_back();
        const FuClass cls = g.nodes[v].cls;
        auto units = std::span<int>(busy).subspan(
            static_cast<size_t>(first_unit[static_cast<size_t>(cls)]),
            static_cast<size_t>(m.unitCount(cls)));
        // Earliest unit whose availability works.
        int best_unit = 0;
        for (size_t u = 1; u < units.size(); ++u)
            if (units[u] < units[best_unit])
                best_unit = static_cast<int>(u);
        int t = std::max(ready_at[v], units[static_cast<size_t>(
                                          best_unit)]);
        out.issueCycle[static_cast<size_t>(v)] = t;
        units[static_cast<size_t>(best_unit)] =
            t + g.nodes[v].issueInterval;
        out.length =
            std::max(out.length, t + g.nodes[v].latency);
        for (int e : g.succ[static_cast<size_t>(v)]) {
            const DepEdge &edge = g.edges[static_cast<size_t>(e)];
            if (edge.distance != 0)
                continue;
            ready_at[edge.to] = std::max(ready_at[edge.to],
                                         t + edge.latency);
            if (--remaining_preds[edge.to] == 0) {
                ready.push_back(edge.to);
                std::push_heap(ready.begin(), ready.end(), later);
            }
        }
    }
    return out;
}

} // namespace sps::sched
