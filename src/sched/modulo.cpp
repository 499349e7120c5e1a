#include "sched/modulo.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <ranges>
#include <stdexcept>

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
 * positive cycles. The fixed point does not depend on the order the
 * edges are relaxed in; buildDepGraph lists them by ascending `to`,
 * and a height flows from `to` back to `from`, so visiting them last
 * first settles the same-iteration edges in one pass.
 */
void
heights(const DepGraph &g, int ii, std::vector<int64_t> &h)
{
    h.resize(g.nodes.size());
    for (int i = 0; i < g.nodeCount(); ++i)
        h[i] = g.nodes[i].latency;
    for (int iter = 0; iter <= g.nodeCount(); ++iter) {
        bool changed = false;
        for (const DepEdge &e : std::views::reverse(g.edges)) {
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
}

/**
 * Modulo reservation table in flat arrays. Each (class, column) holds
 * its occupants in the order they were placed, in a run of `units`
 * slots: a column never holds more than the class has units, and a
 * node whose issue interval exceeds II appears once per cycle it holds
 * the column. reset() empties it for another II and keeps its storage.
 */
class Mrt
{
  public:
    explicit Mrt(const MachineModel &m)
    {
        for (size_t c = 0; c < isa::kNumFuClasses; ++c)
            units_[c] = m.unitCount(static_cast<FuClass>(c));
    }

    void
    reset(int ii)
    {
        ii_ = ii;
        int slots = 0;
        for (size_t c = 0; c < isa::kNumFuClasses; ++c) {
            base_[c] = slots;
            slots += ii * units_[c];
        }
        occupants_.resize(static_cast<size_t>(slots));
        count_.assign(isa::kNumFuClasses * static_cast<size_t>(ii), 0);
    }

    bool
    fits(const DepNode &n, int t) const
    {
        const int units = unitsOf(n);
        const int cols = std::min(n.issueInterval, ii_);
        for (int j = 0; j < cols; ++j) {
            if (count(n, (t + j) % ii_) + hits(n, j) > units)
                return false;
        }
        return true;
    }

    void
    place(int node, const DepNode &n, int t)
    {
        for (int j = 0; j < n.issueInterval; ++j) {
            const int col = (t + j) % ii_;
            int &cnt = count(n, col);
            SPS_ASSERT(cnt < unitsOf(n), "MRT column over capacity");
            occupants_[static_cast<size_t>(slot(n, col) + cnt++)] = node;
        }
    }

    void
    remove(int node, const DepNode &n, int t)
    {
        for (int j = 0; j < n.issueInterval; ++j) {
            const int col = (t + j) % ii_;
            int &cnt = count(n, col);
            auto first = occupants_.begin() + slot(n, col);
            auto last = first + cnt;
            auto it = std::find(first, last, node);
            SPS_ASSERT(it != last, "MRT remove of absent node");
            std::copy(it + 1, last, it);
            --cnt;
        }
    }

    /**
     * The nodes that must be evicted so `n` can be placed at t, in
     * ascending id, into `out`. In each over-full column, in ascending
     * column order, the lowest-priority occupants go: they are sorted
     * by priority as placed, so ties break by placement order.
     */
    void
    conflicts(const DepNode &n, int t, const std::vector<int64_t> &prio,
              std::vector<int> &out)
    {
        out.clear();
        const int units = unitsOf(n);
        const int cols = std::min(n.issueInterval, ii_);
        const int first = t % ii_;
        auto visit = [&](int col) {
            const int cnt = count(n, col);
            const int over = cnt + hits(n, (col - first + ii_) % ii_) -
                             units;
            if (over <= 0)
                return;
            auto begin = occupants_.begin() + slot(n, col);
            sorted_.assign(begin, begin + cnt);
            std::sort(sorted_.begin(), sorted_.end(),
                      [&](int a, int b) { return prio[a] < prio[b]; });
            out.insert(out.end(), sorted_.begin(),
                       sorted_.begin() + std::min(over, cnt));
        };
        // The columns first .. first + cols - 1 wrap past ii_ - 1.
        for (int col = 0; col < first + cols - ii_; ++col)
            visit(col);
        for (int col = first; col < std::min(first + cols, ii_); ++col)
            visit(col);
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
    }

  private:
    int unitsOf(const DepNode &n) const
    {
        return units_[static_cast<size_t>(n.cls)];
    }

    /** Cycles of `n` issued at column c0 that fall in column
     *  c0 + j (mod ii), for 0 <= j < ii. */
    int hits(const DepNode &n, int j) const
    {
        return (n.issueInterval - j + ii_ - 1) / ii_;
    }

    size_t countAt(const DepNode &n, int col) const
    {
        return static_cast<size_t>(n.cls) * static_cast<size_t>(ii_) +
               static_cast<size_t>(col);
    }
    int &count(const DepNode &n, int col) { return count_[countAt(n, col)]; }
    int count(const DepNode &n, int col) const
    {
        return count_[countAt(n, col)];
    }

    int slot(const DepNode &n, int col) const
    {
        return base_[static_cast<size_t>(n.cls)] + col * unitsOf(n);
    }

    int ii_ = 1;
    std::array<int, isa::kNumFuClasses> units_{};
    /** Per class: where its columns' occupant runs start. */
    std::array<int, isa::kNumFuClasses> base_{};
    /** Occupants per (class, column); count_ says how many are live. */
    std::vector<int> occupants_;
    std::vector<int> count_;
    /** conflicts()'s copy of one column. */
    std::vector<int> sorted_;
};

/** Everything tryIms allocates, kept across the II attempts of one
 *  moduloSchedule call. */
struct ImsScratch
{
    explicit ImsScratch(const MachineModel &m) : mrt(m) {}

    Mrt mrt;
    std::vector<int64_t> prio;
    std::vector<int> time;
    std::vector<int> prevTime;
    std::vector<char> scheduled;
    /** The worklist: a heap whose top is the next node to place. */
    std::vector<int> work;
    std::vector<int> evict;
};

bool
tryIms(const DepGraph &g, const MachineModel &m, int ii, ImsScratch &s,
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

    heights(g, ii, s.prio);
    const std::vector<int64_t> &prio = s.prio;
    std::vector<int> &time = s.time;
    std::vector<int> &prev_time = s.prevTime;
    std::vector<char> &scheduled = s.scheduled;
    time.assign(static_cast<size_t>(n), -1);
    prev_time.assign(static_cast<size_t>(n), -1);
    scheduled.assign(static_cast<size_t>(n), 0);
    Mrt &mrt = s.mrt;
    mrt.reset(ii);

    // Worklist ordered by (priority desc, id asc). An unscheduled node
    // is queued exactly once, so the heap pops in that order.
    auto later = [&](int a, int b) {
        if (prio[a] != prio[b])
            return prio[a] < prio[b];
        return a > b;
    };
    std::vector<int> &work = s.work;
    work.resize(static_cast<size_t>(n));
    std::iota(work.begin(), work.end(), 0);
    std::make_heap(work.begin(), work.end(), later);
    auto enqueue = [&](int w) {
        work.push_back(w);
        std::push_heap(work.begin(), work.end(), later);
    };

    int64_t budget = static_cast<int64_t>(n) * kBudgetPerNode + 64;
    while (!work.empty()) {
        if (budget-- <= 0)
            return false;
        std::pop_heap(work.begin(), work.end(), later);
        int v = work.back();
        work.pop_back();

        int64_t estart = 0;
        for (int e : g.pred[static_cast<size_t>(v)]) {
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
        mrt.conflicts(g.nodes[v], slot, prio, s.evict);
        for (int w : s.evict) {
            mrt.remove(w, g.nodes[w], time[w]);
            scheduled[w] = 0;
            enqueue(w);
        }
        mrt.place(v, g.nodes[v], slot);
        scheduled[v] = 1;
        time[v] = slot;
        prev_time[v] = slot;

        // Evict scheduled successors whose dependence is now violated.
        for (int e : g.succ[static_cast<size_t>(v)]) {
            const DepEdge &edge = g.edges[static_cast<size_t>(e)];
            int w = edge.to;
            if (w == v || !scheduled[w])
                continue;
            int64_t ready = time[v] + edge.latency -
                            static_cast<int64_t>(ii) * edge.distance;
            if (time[w] < ready) {
                mrt.remove(w, g.nodes[w], time[w]);
                scheduled[w] = 0;
                enqueue(w);
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
    ImsScratch scratch(m);
    for (int ii = mii; ii <= max_ii; ++ii) {
        if (tryIms(g, m, ii, scratch, result)) {
            verifyModuloSchedule(g, result);
            return result;
        }
    }
    throw std::runtime_error(
        strformat("modulo scheduling failed up to II=%d (MII=%d, %d nodes)",
                  max_ii, mii, g.nodeCount()));
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
