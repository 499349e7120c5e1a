/**
 * @file
 * Lower bounds on the initiation interval of a modulo schedule:
 * ResMII (resource-constrained) and RecMII (recurrence-constrained).
 */
#ifndef SPS_SCHED_MII_H
#define SPS_SCHED_MII_H

#include "sched/depgraph.h"

namespace sps::sched {

/** Resource-constrained minimum initiation interval. */
int resMii(const DepGraph &g, const MachineModel &m);

/**
 * Recurrence-constrained minimum initiation interval: the smallest II
 * such that no dependence cycle has positive slack deficit, found by
 * binary search over a longest-path feasibility check. Throws
 * std::runtime_error when the recurrences do not fit even at the
 * search's cap (the latency sum, at most 2^20).
 */
int recMii(const DepGraph &g);

/** max(resMii, recMii), with one feasibility check at ResMII when the
 *  recurrences fit there. Throws as recMii does. */
int minII(const DepGraph &g, const MachineModel &m);

} // namespace sps::sched

#endif // SPS_SCHED_MII_H
