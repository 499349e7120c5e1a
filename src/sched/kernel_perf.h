/**
 * @file
 * The kernel inner-loop performance model: compile a kernel for a
 * machine (choosing an unroll factor and modulo schedule) and report
 * the static-analysis metrics the paper uses for Figures 13-14 and
 * Table 5, plus the call-time parameters the application simulator
 * charges per kernel invocation.
 */
#ifndef SPS_SCHED_KERNEL_PERF_H
#define SPS_SCHED_KERNEL_PERF_H

#include <array>
#include <vector>

#include "common/fields.h"
#include "kernel/census.h"
#include "kernel/ir.h"
#include "sched/depgraph.h"
#include "sched/machine.h"
#include "sched/modulo.h"

namespace sps::sched {

/** A compiled kernel: schedule metrics for one machine size. */
struct CompiledKernel
{
    /** Chosen unroll factor. */
    int unroll = 1;
    /** Initiation interval of the unrolled loop (cycles). */
    int ii = 1;
    /** Software pipeline stages. */
    int stages = 1;
    /** Schedule length of one unrolled iteration. */
    int length = 1;
    /** Straight-line schedule length (no software pipelining). */
    int listLength = 1;
    /** Unrolled=1 variant, used for short calls where the unrolled
     *  pipeline's priming overhead dominates. */
    int ii1 = 1;
    int stages1 = 1;
    int length1 = 1;
    /** ALU operations of the *original* body, per original iteration. */
    int aluOpsPerIteration = 0;
    /** GOPS-counted operations per original iteration (subword-aware). */
    double gopsOpsPerIteration = 0.0;
    /** Intercluster COMM words sent per original iteration. */
    int commOpsPerIteration = 0;
    /** Scratchpad accesses per original iteration. */
    int spOpsPerIteration = 0;
    /** SRF (streambuffer) accesses per original iteration. */
    int srfAccessesPerIteration = 0;

    /**
     * Inner-loop throughput in ALU operations per cycle per cluster:
     * unroll * aluOpsPerIteration / ii.
     */
    double
    aluOpsPerCycle() const
    {
        return static_cast<double>(unroll) * aluOpsPerIteration / ii;
    }

    /**
     * Cycles to run `iterations` loop iterations (per cluster element
     * batches) in steady software-pipelined execution, including the
     * pipeline priming and draining overhead. Short calls fall back to
     * the straight-line schedule when that is cheaper.
     */
    int64_t loopCycles(int64_t iterations) const;
};

template <FieldsOf<CompiledKernel> S, typename F>
void
forEachField(S &ck, F &&f)
{
    f("unroll", ck.unroll);
    f("ii", ck.ii);
    f("stages", ck.stages);
    f("length", ck.length);
    f("list_length", ck.listLength);
    f("ii1", ck.ii1);
    f("stages1", ck.stages1);
    f("length1", ck.length1);
    f("alu_ops_per_iteration", ck.aluOpsPerIteration);
    f("gops_ops_per_iteration", ck.gopsOpsPerIteration);
    f("comm_ops_per_iteration", ck.commOpsPerIteration);
    f("sp_ops_per_iteration", ck.spOpsPerIteration);
    f("srf_accesses_per_iteration", ck.srfAccessesPerIteration);
}

/** Unroll factors compileKernel tries, smallest first. Factor 1 is
 *  always scheduled: it also backs short calls (CompiledKernel::ii1). */
inline constexpr std::array<int, 3> kUnrollFactors = {1, 2, 4};

/** compileKernel skips a factor that would schedule more ops than
 *  this. */
inline constexpr int kMaxUnrolledOps = 4096;

/**
 * The machine-independent half of compiling a kernel: its census and,
 * for each factor of kUnrollFactors within kMaxUnrolledOps, the
 * unrolled body's dependence skeleton. ScheduleCache keeps one per
 * kernel and compiles every machine from it.
 */
struct KernelPlan
{
    kernel::Census census;
    double gopsOpsPerIteration = 0.0;

    struct Factor
    {
        int unroll = 1;
        DepSkeleton skeleton;
    };
    /** The factors to try, smallest first. */
    std::vector<Factor> factors;
};

/** Unroll `k` by each factor (factor 1 is `k` itself) and build the
 *  skeletons of the bodies. */
KernelPlan planKernel(const kernel::Kernel &k);

/**
 * Compile `k` for machine `m`: pick the factor of kUnrollFactors with
 * the best per-original-iteration throughput (ties go to the smaller
 * factor). A factor above 1 whose MII bound cannot beat the best so
 * far is skipped without modulo scheduling; the choice is the same.
 * Throws std::invalid_argument when `m` lacks a unit class `k` issues
 * on (MachineModel::canExecute). Builds k's plan and calls the
 * overload below.
 */
CompiledKernel compileKernel(const kernel::Kernel &k,
                             const MachineModel &m);

/** The per-machine half of compileKernel: `plan` is planKernel(k). */
CompiledKernel compileKernel(const kernel::Kernel &k,
                             const KernelPlan &plan,
                             const MachineModel &m);

} // namespace sps::sched

#endif // SPS_SCHED_KERNEL_PERF_H
