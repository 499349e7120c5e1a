/**
 * @file
 * Small statistics helpers used by the performance evaluation: the paper
 * reports harmonic means over kernel and application suites.
 */
#ifndef SPS_COMMON_STATS_H
#define SPS_COMMON_STATS_H

#include <vector>

namespace sps {

/** Harmonic mean of a series of positive values. */
double harmonicMean(const std::vector<double> &values);

/** Arithmetic mean. */
double arithmeticMean(const std::vector<double> &values);

} // namespace sps

#endif // SPS_COMMON_STATS_H
