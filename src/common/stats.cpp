#include "common/stats.h"

#include "common/log.h"

namespace sps {

double
harmonicMean(const std::vector<double> &values)
{
    SPS_ASSERT(!values.empty(), "harmonic mean of empty series");
    double denom = 0.0;
    for (double v : values) {
        SPS_ASSERT(v > 0.0, "harmonic mean requires positive values");
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

double
arithmeticMean(const std::vector<double> &values)
{
    SPS_ASSERT(!values.empty(), "mean of empty series");
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / static_cast<double>(values.size());
}

} // namespace sps
