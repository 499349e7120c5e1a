/**
 * @file
 * Iterative modulo scheduling (Rau, MICRO-27 1994) of kernel inner
 * loops onto the cluster's VLIW resources. This is what "compiling a
 * kernel" means for the paper's static analysis: the achieved
 * initiation interval II determines inner-loop throughput, and the
 * stage count determines the software-pipelining priming overhead
 * that the application simulator charges per kernel call.
 *
 * The modulo reservation table is flat: per (unit class, column) a
 * count and a run of as many occupant slots as the class has units,
 * all in arrays that one call reuses for every II it tries. The
 * worklist is a binary heap. Ties break as in the node-based
 * formulation the scheduler started from, so every issue cycle is the
 * same:
 *  - the next node placed is the unscheduled one of highest height,
 *    lowest id first (a node is queued at most once at a time);
 *  - a node that cannot fit evicts, in each over-full column, the
 *    occupants that std::sort by ascending height puts first, sorting
 *    the column in the order its occupants were placed;
 *  - evicted nodes go back to the worklist in ascending id.
 */
#ifndef SPS_SCHED_MODULO_H
#define SPS_SCHED_MODULO_H

#include <vector>

#include "sched/depgraph.h"

namespace sps::sched {

/** Result of modulo scheduling one loop body. */
struct ModuloSchedule
{
    bool ok = false;
    /** Achieved initiation interval (cycles per iteration). */
    int ii = 0;
    /** Software pipeline depth in stages. */
    int stages = 0;
    /** Schedule length of a single iteration (issue to last result). */
    int length = 0;
    /** Issue cycle per dependence-graph node. */
    std::vector<int> issueCycle;
};

/**
 * Schedule the loop with the smallest feasible II.
 *
 * @param g dependence graph of the loop body
 * @param m machine resource model
 * @param max_ii II search limit; 0 picks a generous default.
 * @throws std::runtime_error when no II up to the limit schedules.
 */
ModuloSchedule moduloSchedule(const DepGraph &g, const MachineModel &m,
                              int max_ii = 0);

/** Check every dependence of a claimed schedule; panics on violation. */
void verifyModuloSchedule(const DepGraph &g, const ModuloSchedule &s);

} // namespace sps::sched

#endif // SPS_SCHED_MODULO_H
