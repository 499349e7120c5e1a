#include "sched/kernel_perf.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.h"
#include "sched/depgraph.h"
#include "sched/list_sched.h"
#include "sched/mii.h"
#include "sched/unroll.h"

namespace sps::sched {

namespace {
int64_t
pipelinedCycles(int64_t iterations, int ii, int stages, int length)
{
    int64_t tail = std::max<int64_t>(
        0, length - static_cast<int64_t>(stages) * ii);
    return (iterations + stages - 1) * static_cast<int64_t>(ii) + tail;
}
} // namespace

int64_t
CompiledKernel::loopCycles(int64_t iterations) const
{
    if (iterations <= 0)
        return 0;
    int64_t unrolled = (iterations + unroll - 1) / unroll;
    // Candidates: the throughput-optimal unrolled pipeline, the
    // no-unroll pipeline (cheaper priming on short calls), and plain
    // straight-line issue.
    int64_t best = pipelinedCycles(unrolled, ii, stages, length);
    best = std::min(best,
                    pipelinedCycles(iterations, ii1, stages1, length1));
    best = std::min(best, iterations * static_cast<int64_t>(listLength));
    return best;
}

static_assert(kUnrollFactors[0] == 1,
              "the u=1 schedule supplies the short-call fields");

KernelPlan
planKernel(const kernel::Kernel &k)
{
    KernelPlan plan;
    plan.census = kernel::takeCensus(k);
    plan.gopsOpsPerIteration = kernel::gopsOpsPerIteration(k);
    for (int u : kUnrollFactors) {
        if (static_cast<int>(k.ops.size()) * u > kMaxUnrolledOps)
            continue;
        // Factor 1 is k itself: no copy.
        plan.factors.push_back(KernelPlan::Factor{
            u, u == 1 ? buildDepSkeleton(k)
                      : buildDepSkeleton(unrollKernel(k, u))});
    }
    return plan;
}

CompiledKernel
compileKernel(const kernel::Kernel &k, const MachineModel &m)
{
    return compileKernel(k, planKernel(k), m);
}

CompiledKernel
compileKernel(const kernel::Kernel &k, const KernelPlan &plan,
              const MachineModel &m)
{
    // A client's machine size or params reach here (an N=1 cluster has
    // no multiplier), so this is an exception, not an abort.
    if (!m.canExecute(k))
        throw std::invalid_argument(
            "kernel " + k.name + " cannot execute on C=" +
            std::to_string(m.size().clusters) +
            " N=" + std::to_string(m.size().alusPerCluster));
    const kernel::Census &census = plan.census;

    CompiledKernel best;
    bool have_best = false;
    int ii1 = 1, stages1 = 1, length1 = 1, list_len = 1;
    for (const KernelPlan::Factor &f : plan.factors) {
        const int u = f.unroll;
        DepGraph g = fillDepGraph(f.skeleton, m);
        // moduloSchedule never returns an II below minII, so
        // u*aluOps/minII bounds this factor's throughput. When that
        // bound cannot beat the best so far by the pick's 1e-9
        // margin, scheduling the factor could not change the choice.
        // u=1 is always scheduled: it supplies the short-call fields.
        if (u > 1 && have_best &&
            static_cast<double>(u) * census.aluOps / minII(g, m) <=
                best.aluOpsPerCycle() + 1e-9)
            continue;
        ModuloSchedule s = moduloSchedule(g, m);

        if (u == 1) {
            ii1 = s.ii;
            stages1 = s.stages;
            length1 = s.length;
            ListSchedule ls = listSchedule(g, m);
            list_len = std::max(1, ls.length);
        }

        CompiledKernel c;
        c.unroll = u;
        c.ii = s.ii;
        c.stages = s.stages;
        c.length = s.length;
        c.aluOpsPerIteration = census.aluOps;
        c.gopsOpsPerIteration = plan.gopsOpsPerIteration;
        c.commOpsPerIteration = census.comms;
        c.spOpsPerIteration = census.spAccesses;
        c.srfAccessesPerIteration = census.srfAccesses;
        if (!have_best ||
            c.aluOpsPerCycle() > best.aluOpsPerCycle() + 1e-9) {
            best = c;
            have_best = true;
        }
    }
    SPS_ASSERT(have_best, "no feasible unroll factor for %s",
               k.name.c_str());
    best.ii1 = ii1;
    best.stages1 = stages1;
    best.length1 = length1;
    best.listLength = list_len;
    return best;
}

} // namespace sps::sched
