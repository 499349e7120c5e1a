#include "analysis/intervals.h"

#include <algorithm>
#include <utility>

namespace sps::analysis {

std::vector<CycleInterval>
mergeIntervals(std::vector<CycleInterval> v)
{
    // The merge below gives the same set for any order of equal
    // starts, so input already in start order skips the sort.
    auto by_start = [](const CycleInterval &a, const CycleInterval &b) {
        return a.start < b.start;
    };
    if (!std::is_sorted(v.begin(), v.end(), by_start))
        std::sort(v.begin(), v.end(), by_start);
    std::vector<CycleInterval> out;
    for (const CycleInterval &iv : v) {
        if (iv.end <= iv.start)
            continue;
        if (!out.empty() && iv.start <= out.back().end)
            out.back().end = std::max(out.back().end, iv.end);
        else
            out.push_back(iv);
    }
    return out;
}

std::vector<CycleInterval>
IntervalUnion::take()
{
    std::vector<CycleInterval> out =
        sorted_ ? std::move(set_) : mergeIntervals(std::move(set_));
    set_.clear();
    sorted_ = true;
    return out;
}

int64_t
intervalLength(const std::vector<CycleInterval> &v)
{
    int64_t n = 0;
    for (const CycleInterval &iv : v)
        n += iv.end - iv.start;
    return n;
}

std::vector<CycleInterval>
unionIntervals(const std::vector<CycleInterval> &a,
               const std::vector<CycleInterval> &b)
{
    std::vector<CycleInterval> out;
    out.reserve(a.size() + b.size());
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        const CycleInterval &iv =
            j == b.size() || (i < a.size() && a[i].start <= b[j].start)
                ? a[i++]
                : b[j++];
        if (!out.empty() && iv.start <= out.back().end)
            out.back().end = std::max(out.back().end, iv.end);
        else
            out.push_back(iv);
    }
    return out;
}

std::vector<CycleInterval>
intersectIntervals(const std::vector<CycleInterval> &a,
                   const std::vector<CycleInterval> &b)
{
    std::vector<CycleInterval> out;
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        int64_t lo = std::max(a[i].start, b[j].start);
        int64_t hi = std::min(a[i].end, b[j].end);
        if (lo < hi)
            out.push_back({lo, hi});
        if (a[i].end < b[j].end)
            ++i;
        else
            ++j;
    }
    return out;
}

std::vector<CycleInterval>
subtractIntervals(const std::vector<CycleInterval> &a,
                  const std::vector<CycleInterval> &b)
{
    std::vector<CycleInterval> out;
    size_t j = 0;
    for (CycleInterval iv : a) {
        while (j < b.size() && b[j].end <= iv.start)
            ++j;
        int64_t cur = iv.start;
        size_t k = j;
        while (k < b.size() && b[k].start < iv.end) {
            if (b[k].start > cur)
                out.push_back({cur, b[k].start});
            cur = std::max(cur, b[k].end);
            ++k;
        }
        if (cur < iv.end)
            out.push_back({cur, iv.end});
    }
    return out;
}

} // namespace sps::analysis
