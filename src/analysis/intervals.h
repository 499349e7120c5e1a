/**
 * @file
 * Half-open cycle intervals and the set operations over them: the one
 * interval library the simulator uses. The memory system records its
 * busy intervals in this type (mem::BusyInterval), the stream
 * controller derives its cycle breakdown from them, and bottleneck
 * attribution (analysis/bottleneck.h) claims idle cycles with them.
 */
#ifndef SPS_ANALYSIS_INTERVALS_H
#define SPS_ANALYSIS_INTERVALS_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sps::analysis {

/** One half-open [start, end) interval of simulated cycles. */
struct CycleInterval
{
    int64_t start = 0;
    int64_t end = 0;
};

/** Sort (unless already in start order) and merge possibly-overlapping
 *  intervals into a disjoint, sorted set (empty intervals dropped;
 *  touching ones joined). */
std::vector<CycleInterval> mergeIntervals(std::vector<CycleInterval> v);

/**
 * The union of intervals that arrive mostly in start order, built as
 * they arrive. An interval that starts no earlier than the last one
 * extends it or is appended, so in the usual case the set stays
 * disjoint and sorted and never holds more than the union does. One
 * that starts earlier is appended as it is and marks the set
 * unsorted, and take() then runs mergeIntervals once. Either way
 * take() returns exactly mergeIntervals of every interval added.
 */
class IntervalUnion
{
  public:
    void
    add(CycleInterval iv)
    {
        if (iv.end <= iv.start)
            return;
        if (!set_.empty()) {
            CycleInterval &last = set_.back();
            if (iv.start >= last.start && iv.start <= last.end) {
                last.end = std::max(last.end, iv.end);
                return;
            }
            sorted_ = sorted_ && iv.start > last.end;
        }
        set_.push_back(iv);
    }

    /** The disjoint sorted union of everything added since the last
     *  take(); the union is empty after. */
    std::vector<CycleInterval> take();

  private:
    std::vector<CycleInterval> set_;
    bool sorted_ = true;
};

/** Total length of a disjoint interval set. */
int64_t intervalLength(const std::vector<CycleInterval> &v);

/** Union of two disjoint sorted sets, in one linear merge: a disjoint
 *  sorted set (touching intervals joined). */
std::vector<CycleInterval> unionIntervals(
    const std::vector<CycleInterval> &a,
    const std::vector<CycleInterval> &b);

/** Intersection of two disjoint sorted sets. */
std::vector<CycleInterval> intersectIntervals(
    const std::vector<CycleInterval> &a,
    const std::vector<CycleInterval> &b);

/** Set difference a \ b of two disjoint sorted sets. */
std::vector<CycleInterval> subtractIntervals(
    const std::vector<CycleInterval> &a,
    const std::vector<CycleInterval> &b);

} // namespace sps::analysis

#endif // SPS_ANALYSIS_INTERVALS_H
