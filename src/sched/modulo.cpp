#include "sched/modulo.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "common/log.h"
#include "sched/mii.h"

namespace sps::sched {

using isa::FuClass;

namespace {

/** Budget multiplier: operations tried per node before giving up. */
constexpr int kBudgetPerNode = 32;

/**
 * Height-based priority: longest effective-latency path from each node
 * to any sink, with loop-carried edges weighted lat - ii*dist.
 * Computed by relaxation; converges because ii >= RecMII implies no
 * positive cycles.
 */
std::vector<int64_t>
heights(const DepGraph &g, int ii)
{
    std::vector<int64_t> h(g.nodes.size(), 0);
    for (int i = 0; i < g.nodeCount(); ++i)
        h[i] = g.nodes[i].latency;
    for (int iter = 0; iter <= g.nodeCount(); ++iter) {
        bool changed = false;
        for (const DepEdge &e : g.edges) {
            int64_t w = e.latency - static_cast<int64_t>(ii) * e.distance;
            int64_t cand = h[e.to] + w;
            if (cand > h[e.from]) {
                h[e.from] = cand;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return h;
}

/** Modulo reservation table for one candidate II. */
class Mrt
{
  public:
    Mrt(const MachineModel &m, int ii) : m_(m), ii_(ii)
    {
        for (auto &rows : table_)
            rows.assign(static_cast<size_t>(ii), {});
    }

    /** Columns a node occupies when issued at cycle t. */
    int
    occupancy(const DepNode &n) const
    {
        return n.issueInterval;
    }

    bool
    fits(const DepNode &n, int t) const
    {
        const auto &rows = table_[static_cast<size_t>(n.cls)];
        int units = m_.unitCount(n.cls);
        std::map<int, int> extra;
        for (int j = 0; j < occupancy(n); ++j)
            ++extra[(t + j) % ii_];
        for (const auto &[col, cnt] : extra) {
            if (static_cast<int>(rows[static_cast<size_t>(col)].size()) +
                    cnt > units)
                return false;
        }
        return true;
    }

    void
    place(int node, const DepNode &n, int t)
    {
        auto &rows = table_[static_cast<size_t>(n.cls)];
        for (int j = 0; j < occupancy(n); ++j)
            rows[static_cast<size_t>((t + j) % ii_)].push_back(node);
    }

    void
    remove(int node, const DepNode &n, int t)
    {
        auto &rows = table_[static_cast<size_t>(n.cls)];
        for (int j = 0; j < occupancy(n); ++j) {
            auto &col = rows[static_cast<size_t>((t + j) % ii_)];
            auto it = std::find(col.begin(), col.end(), node);
            SPS_ASSERT(it != col.end(), "MRT remove of absent node");
            col.erase(it);
        }
    }

    /**
     * Nodes that must be evicted so `n` can be placed at t. Lower-
     * priority occupants are preferred.
     */
    std::vector<int>
    conflicts(const DepNode &n, int t,
              const std::vector<int64_t> &prio) const
    {
        std::set<int> out;
        const auto &rows = table_[static_cast<size_t>(n.cls)];
        int units = m_.unitCount(n.cls);
        std::map<int, int> extra;
        for (int j = 0; j < occupancy(n); ++j)
            ++extra[(t + j) % ii_];
        for (const auto &[col, cnt] : extra) {
            const auto &occupants = rows[static_cast<size_t>(col)];
            int over = static_cast<int>(occupants.size()) + cnt - units;
            if (over <= 0)
                continue;
            // Evict the lowest-priority occupants of this column.
            std::vector<int> sorted(occupants.begin(), occupants.end());
            std::sort(sorted.begin(), sorted.end(),
                      [&](int a, int b) { return prio[a] < prio[b]; });
            for (int i = 0; i < over && i < static_cast<int>(
                                              sorted.size()); ++i)
                out.insert(sorted[static_cast<size_t>(i)]);
        }
        return {out.begin(), out.end()};
    }

  private:
    const MachineModel &m_;
    int ii_;
    /** Per FuClass, per column: the nodes issued there. */
    std::array<std::vector<std::vector<int>>, isa::kNumFuClasses> table_;
};

bool
tryIms(const DepGraph &g, const MachineModel &m, int ii,
       ModuloSchedule &result)
{
    const int n = g.nodeCount();
    // A non-pipelined operation longer than II cannot repeat every II
    // on one unit unless the class has spare units every column; the
    // fits() accounting handles that, but a single op wider than
    // ii*units can never fit.
    for (const DepNode &node : g.nodes) {
        if (node.issueInterval > ii * m.unitCount(node.cls))
            return false;
    }

    std::vector<int64_t> prio = heights(g, ii);
    std::vector<int> time(static_cast<size_t>(n), -1);
    std::vector<int> prev_time(static_cast<size_t>(n), -1);
    std::vector<bool> scheduled(static_cast<size_t>(n), false);
    Mrt mrt(m, ii);

    // Worklist ordered by (priority desc, id asc).
    auto cmp = [&](int a, int b) {
        if (prio[a] != prio[b])
            return prio[a] > prio[b];
        return a < b;
    };
    std::set<int, decltype(cmp)> work(cmp);
    for (int i = 0; i < n; ++i)
        work.insert(i);

    int64_t budget = static_cast<int64_t>(n) * kBudgetPerNode + 64;
    while (!work.empty()) {
        if (budget-- <= 0)
            return false;
        int v = *work.begin();
        work.erase(work.begin());

        int64_t estart = 0;
        for (int e : g.pred[v]) {
            const DepEdge &edge = g.edges[static_cast<size_t>(e)];
            if (!scheduled[edge.from])
                continue;
            estart = std::max<int64_t>(
                estart, time[edge.from] + edge.latency -
                            static_cast<int64_t>(ii) * edge.distance);
        }
        if (prev_time[v] >= 0 && estart <= prev_time[v])
            estart = prev_time[v] + 1;
        if (estart > (1 << 24))
            return false; // runaway: schedule is diverging

        int slot = -1;
        for (int t = static_cast<int>(estart);
             t < static_cast<int>(estart) + ii; ++t) {
            if (mrt.fits(g.nodes[v], t)) {
                slot = t;
                break;
            }
        }
        if (slot < 0)
            slot = static_cast<int>(estart);

        // Evict resource conflicts.
        for (int w : mrt.conflicts(g.nodes[v], slot, prio)) {
            mrt.remove(w, g.nodes[w], time[w]);
            scheduled[w] = false;
            work.insert(w);
        }
        mrt.place(v, g.nodes[v], slot);
        scheduled[v] = true;
        time[v] = slot;
        prev_time[v] = slot;

        // Evict scheduled successors whose dependence is now violated.
        for (int e : g.succ[v]) {
            const DepEdge &edge = g.edges[static_cast<size_t>(e)];
            int w = edge.to;
            if (w == v || !scheduled[w])
                continue;
            int64_t ready = time[v] + edge.latency -
                            static_cast<int64_t>(ii) * edge.distance;
            if (time[w] < ready) {
                mrt.remove(w, g.nodes[w], time[w]);
                scheduled[w] = false;
                work.insert(w);
            }
        }
    }

    result.ok = true;
    result.ii = ii;
    result.issueCycle = time;
    int max_issue = 0;
    int max_finish = 0;
    for (int i = 0; i < n; ++i) {
        max_issue = std::max(max_issue, time[i]);
        max_finish = std::max(max_finish, time[i] + g.nodes[i].latency);
    }
    result.stages = max_issue / ii + 1;
    result.length = max_finish;
    return true;
}

} // namespace

ModuloSchedule
moduloSchedule(const DepGraph &g, const MachineModel &m, int max_ii)
{
    ModuloSchedule result;
    if (g.nodeCount() == 0) {
        result.ok = true;
        result.ii = 1;
        result.stages = 1;
        result.length = 1;
        return result;
    }
    int mii = minII(g, m);
    if (max_ii <= 0)
        max_ii = mii * 3 + 96;
    for (int ii = mii; ii <= max_ii; ++ii) {
        if (tryIms(g, m, ii, result)) {
            verifyModuloSchedule(g, result);
            return result;
        }
    }
    panic("modulo scheduling failed up to II=%d (MII=%d, %d nodes)",
          max_ii, mii, g.nodeCount());
}

void
verifyModuloSchedule(const DepGraph &g, const ModuloSchedule &s)
{
    SPS_ASSERT(s.ok, "verify of failed schedule");
    for (const DepEdge &e : g.edges) {
        int64_t lhs = s.issueCycle[static_cast<size_t>(e.to)];
        int64_t rhs = s.issueCycle[static_cast<size_t>(e.from)] +
                      e.latency -
                      static_cast<int64_t>(s.ii) * e.distance;
        SPS_ASSERT(lhs >= rhs,
                   "dependence %d->%d violated: t=%lld < %lld", e.from,
                   e.to, static_cast<long long>(lhs),
                   static_cast<long long>(rhs));
    }
}

} // namespace sps::sched
