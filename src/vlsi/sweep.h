/**
 * @file
 * Scaling-sweep utilities that evaluate the cost model across ranges of
 * C and N and produce the normalized series plotted in Figures 6-12.
 *
 * Sweep points evaluate concurrently on a thread pool (pass the
 * engine's, core::EvalEngine::pool(); with nullptr they evaluate
 * inline on the caller) with results collected in axis order, so
 * series are identical whatever the thread count.
 */
#ifndef SPS_VLSI_SWEEP_H
#define SPS_VLSI_SWEEP_H

#include <cstddef>
#include <vector>

#include "vlsi/cost_model.h"

namespace sps {
class ThreadPool;
}

namespace sps::vlsi {

/** One point of a scaling sweep with per-component detail. */
struct SweepPoint
{
    MachineSize size;
    AreaBreakdown area;
    EnergyBreakdown energy;
    DelayResult delay;
    double areaPerAlu = 0.0;
    double energyPerAluOp = 0.0;
};

/** A full sweep plus the index of its normalization reference. */
struct SweepSeries
{
    std::vector<SweepPoint> points;
    size_t refIndex = 0;

    /** Area per ALU of each point divided by the reference point's. */
    std::vector<double> normalizedAreaPerAlu() const;
    /** Energy per op of each point divided by the reference point's. */
    std::vector<double> normalizedEnergyPerOp() const;
};

/**
 * Intracluster sweep: C fixed, N varies (Figures 6-8). The reference
 * point for normalization is N = ref_n (the paper uses N = 5).
 */
SweepSeries intraclusterSweep(const CostModel &model, int c,
                              const std::vector<int> &n_values,
                              int ref_n = 5,
                              ThreadPool *pool = nullptr);

/**
 * Intercluster sweep: N fixed, C varies (Figures 9-11). The reference
 * point is C = ref_c (the paper uses C = 8).
 */
SweepSeries interclusterSweep(const CostModel &model, int n,
                              const std::vector<int> &c_values,
                              int ref_c = 8,
                              ThreadPool *pool = nullptr);

/** The standard N values plotted in Figures 6-8. */
std::vector<int> defaultIntraRange();

/** The standard C values plotted in Figures 9-11 (powers of two). */
std::vector<int> defaultInterRange();

} // namespace sps::vlsi

#endif // SPS_VLSI_SWEEP_H
