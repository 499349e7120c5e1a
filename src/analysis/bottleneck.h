/**
 * @file
 * Bottleneck attribution: post-process a run's op timeline (with its
 * per-op issue metadata) and the exact busy-interval sets of the
 * memory pins and the microcontroller into a stall waterfall
 * (analysis/bottleneck_report.h) that assigns every cycle of the run
 * to exactly one limiting cause.
 *
 * Attribution model: cycles where the microcontroller was busy are
 * kernel-bound (overlapped memory traffic rides along for free);
 * cycles where only the memory pins were busy are memory-bound. The
 * remaining quiet cycles are attributed by intersecting the idle set
 * with the per-op wait windows recorded at issue, in fixed priority
 * order: scoreboard-full waits, then dependence waits of issued ops
 * (trailing memory latency), then host-channel serialization; any
 * remainder is reported as unattributed idle. Pure integer interval
 * arithmetic -- deterministic for a given timeline.
 */
#ifndef SPS_ANALYSIS_BOTTLENECK_H
#define SPS_ANALYSIS_BOTTLENECK_H

#include <cstdint>
#include <vector>

#include "analysis/bottleneck_report.h"
#include "analysis/intervals.h"
#include "sim/stats.h"

namespace sps::analysis {

/**
 * Attribute every cycle of a run. `memBusy` and `ucBusy` are the
 * run's busy intervals, each a disjoint set sorted by start with no
 * empty interval (as mergeIntervals returns; the stream controller
 * passes its merged sets as they are); `timeline` supplies the per-op
 * wait windows.
 */
BottleneckReport attributeBottleneck(
    const std::vector<sim::OpInterval> &timeline,
    const std::vector<CycleInterval> &memBusy,
    const std::vector<CycleInterval> &ucBusy, int64_t cycles);

} // namespace sps::analysis

#endif // SPS_ANALYSIS_BOTTLENECK_H
