/**
 * @file
 * The scheduler against an oracle: the node-based formulation it was
 * written from, kept here verbatim (a std::map/std::set modulo
 * reservation table and worklist, a full priority rescan per list
 * scheduling pick, a std::map of resource demand, and height
 * relaxations that visit the edges first to last). The flat tables in
 * src/sched must reproduce it exactly: the same II, stages, length and
 * issue cycle of every node, and the same list schedule.
 */
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "core/experiments.h"
#include "random_kernel.h"
#include "sched/kernel_perf.h"
#include "sched/list_sched.h"
#include "sched/mii.h"
#include "sched/modulo.h"
#include "sched/unroll.h"

namespace sps::sched {
namespace {

using isa::FuClass;

// ---- Oracle: the node-based scheduler, verbatim ----

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


ListSchedule
listScheduleOracle(const DepGraph &g, const MachineModel &m)
{
    const int n = g.nodeCount();
    ListSchedule out;
    out.issueCycle.assign(static_cast<size_t>(n), -1);
    if (n == 0)
        return out;

    // Critical-path priorities over the same-iteration subgraph.
    std::vector<int64_t> height(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i)
        height[i] = g.nodes[i].latency;
    for (int iter = 0; iter < n; ++iter) {
        bool changed = false;
        for (const DepEdge &e : g.edges) {
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

    // busyUntil[cls][unit]: next free cycle of each unit instance.
    std::map<FuClass, std::vector<int>> busy;
    for (int i = 0; i < n; ++i) {
        FuClass cls = g.nodes[i].cls;
        if (!busy.count(cls))
            busy[cls].assign(
                static_cast<size_t>(m.unitCount(cls)), 0);
    }

    std::vector<int> ready_at(static_cast<size_t>(n), 0);
    std::vector<int> order(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (height[a] != height[b])
            return height[a] > height[b];
        return a < b;
    });

    int placed = 0;
    std::vector<bool> done(static_cast<size_t>(n), false);
    while (placed < n) {
        // Pick the highest-priority ready node.
        int v = -1;
        for (int cand : order) {
            if (!done[cand] && remaining_preds[cand] == 0) {
                v = cand;
                break;
            }
        }
        SPS_ASSERT(v >= 0, "list scheduler deadlock (dependence cycle)");
        auto &units = busy[g.nodes[v].cls];
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
        done[v] = true;
        ++placed;
        for (int e : g.succ[v]) {
            const DepEdge &edge = g.edges[static_cast<size_t>(e)];
            if (edge.distance != 0)
                continue;
            ready_at[edge.to] = std::max(ready_at[edge.to],
                                         t + edge.latency);
            --remaining_preds[edge.to];
        }
    }
    return out;
}


int
resMiiOracle(const DepGraph &g, const MachineModel &m)
{
    // Sum the issue-slot demand per class (non-pipelined operations
    // occupy issueInterval slots) and divide by the unit count.
    std::map<FuClass, int> demand;
    for (const DepNode &n : g.nodes)
        demand[n.cls] += n.issueInterval;
    int mii = 1;
    for (const auto &[cls, slots] : demand) {
        int units = m.unitCount(cls);
        SPS_ASSERT(units >= 1, "no units for class %d",
                   static_cast<int>(cls));
        mii = std::max(mii, (slots + units - 1) / units);
    }
    return mii;
}


/** The oracle's moduloSchedule: the same II search, without the
 *  panic (a failure comes back with ok == false). */
ModuloSchedule
moduloScheduleOracle(const DepGraph &g, const MachineModel &m)
{
    ModuloSchedule result;
    if (g.nodeCount() == 0) {
        result.ok = true;
        result.ii = 1;
        result.stages = 1;
        result.length = 1;
        return result;
    }
    int mii = std::max(resMiiOracle(g, m), recMii(g));
    int max_ii = mii * 3 + 96;
    for (int ii = mii; ii <= max_ii; ++ii)
        if (tryIms(g, m, ii, result))
            return result;
    return result;
}

// ---- Comparison ----

/** Schedule `g` both ways and compare every output. */
void
expectSameSchedules(const DepGraph &g, const MachineModel &m,
                    const std::string &where)
{
    EXPECT_EQ(resMii(g, m), resMiiOracle(g, m)) << where;
    ModuloSchedule want = moduloScheduleOracle(g, m);
    ASSERT_TRUE(want.ok) << where;
    ModuloSchedule got = moduloSchedule(g, m);
    EXPECT_EQ(got.ii, want.ii) << where;
    EXPECT_EQ(got.stages, want.stages) << where;
    EXPECT_EQ(got.length, want.length) << where;
    EXPECT_EQ(got.issueCycle, want.issueCycle) << where;
    ListSchedule list_want = listScheduleOracle(g, m);
    ListSchedule list_got = listSchedule(g, m);
    EXPECT_EQ(list_got.length, list_want.length) << where;
    EXPECT_EQ(list_got.issueCycle, list_want.issueCycle) << where;
}

// Every unroll factor of every (kernel, machine) pair the figure suite
// compiles, pruned by compileKernel or not: 720 graphs.
TEST(ScheduleOracleTest, FigureSuiteGraphsMatchOracle)
{
    int graphs = 0;
    for (const core::SuiteCompile &p : core::suiteCompiles()) {
        const kernel::Kernel &k = *p.kernel;
        MachineModel m = MachineModel::forSize(p.size);
        for (int u : kUnrollFactors) {
            if (static_cast<int>(k.ops.size()) * u > kMaxUnrolledOps)
                continue;
            DepGraph g = buildDepGraph(unrollKernel(k, u), m);
            expectSameSchedules(
                g, m,
                k.name + " x" + std::to_string(u) + " at C=" +
                    std::to_string(p.size.clusters) +
                    " N=" + std::to_string(p.size.alusPerCluster));
            ++graphs;
        }
    }
    EXPECT_EQ(graphs, 720);
}

TEST(ScheduleOracleTest, RandomKernelsMatchOracle)
{
    for (int seed = 0; seed < kRandomKernelSeeds; ++seed) {
        kernel::Kernel k = randomKernel(seed);
        for (vlsi::MachineSize size : kRandomKernelSizes) {
            MachineModel m = MachineModel::forSize(size);
            expectSameSchedules(
                buildDepGraph(k, m), m,
                "seed " + std::to_string(seed) + " at C=" +
                    std::to_string(size.clusters) +
                    " N=" + std::to_string(size.alusPerCluster));
        }
    }
}

} // namespace
} // namespace sps::sched
