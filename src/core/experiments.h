/**
 * @file
 * Experiment runners: the data series behind the paper's performance
 * tables and figures (Figures 13 and 14, Table 5, plus the headline
 * comparisons; the Figure-15 app grid runs through
 * svc::EvalService::appPerformance). The bench binaries format these;
 * the integration tests assert their shapes.
 *
 * Every runner routes through an EvalEngine: design points evaluate
 * concurrently on its thread pool and kernel compilations memoize in
 * the shared schedule cache, while results are collected in the same
 * deterministic axis order the old serial loops produced. Passing
 * nullptr (the default) uses EvalEngine::global().
 */
#ifndef SPS_CORE_EXPERIMENTS_H
#define SPS_CORE_EXPERIMENTS_H

#include <map>
#include <string>
#include <vector>

#include "core/design.h"
#include "sim/stats.h"

namespace sps::core {

class EvalEngine;

/** The reference machine all speedups are measured against. */
constexpr vlsi::MachineSize kBaseline{8, 5};

/** The (C, N) grid of Figures 13-15 and Table 5: the N values of the
 *  intracluster axis and the C values of the intercluster axis. */
inline const std::vector<int> kGridN{2, 5, 10, 14};
inline const std::vector<int> kGridC{8, 16, 32, 64, 128};

/** One (kernel, machine size) pair the figure suite compiles. */
struct SuiteCompile
{
    const kernel::Kernel *kernel = nullptr;
    vlsi::MachineSize size;
};

/**
 * Every distinct (kernel, machine size) pair the figure suite
 * compiles, in first-use order: the Table-4 kernels at the baseline
 * and at every kGridC x kGridN size (Figures 13/14, Table 5), then
 * every kernel the applications call at those sizes (Figure 15).
 */
std::vector<SuiteCompile> suiteCompiles();

/** One kernel's speedup series over an axis of machine sizes. */
struct SpeedupSeries
{
    std::string name;
    std::vector<double> values;
};

/** Kernel inner-loop speedups along one scaling axis. */
struct KernelSpeedupData
{
    /** Axis values (N for intracluster, C for intercluster). */
    std::vector<int> axis;
    /** Per-kernel series plus a final "harmonic mean" series. */
    std::vector<SpeedupSeries> series;
};

/** Figure 13: intracluster kernel speedups (C fixed). */
KernelSpeedupData kernelIntraSpeedups(
    const std::vector<int> &n_values = kGridN, int c = 8,
    EvalEngine *engine = nullptr);

/** Figure 14: intercluster kernel speedups (N fixed). */
KernelSpeedupData kernelInterSpeedups(
    const std::vector<int> &c_values = kGridC, int n = 5,
    EvalEngine *engine = nullptr);

/** Table 5: kernel performance per unit area. */
struct PerfPerAreaData
{
    std::vector<int> nValues;
    std::vector<int> cValues;
    /** value[n][c]: harmonic-mean GOPS per ALU-equivalent of area. */
    std::vector<std::vector<double>> value;
};

PerfPerAreaData
table5PerfPerArea(const std::vector<int> &n_values = kGridN,
                  const std::vector<int> &c_values = kGridC,
                  EvalEngine *engine = nullptr);

/** One application measurement at one machine size: a Figure-15
 *  point. */
struct AppPoint
{
    std::string app;
    vlsi::MachineSize size;
    int64_t cycles = 0;
    double speedup = 0.0; ///< vs the C=8 N=5 baseline
    double gops = 0.0;    ///< sustained at the 45nm 1 GHz clock
    /** Full simulation result (hardware counters, timeline). */
    sim::SimResult result;
};

/** Run one app at one size (helper for tests and examples). */
AppPoint runApp(const std::string &app_name, vlsi::MachineSize size);

/** The paper's headline comparison (Abstract / Section 6). */
struct Headline
{
    /** C=128 N=5 (640 ALUs) vs C=8 N=5 (40 ALUs). */
    double kernelSpeedup640 = 0.0;
    double appSpeedup640 = 0.0;
    double areaPerAluDegradation640 = 0.0;   // fraction, e.g. 0.02
    double energyPerOpDegradation640 = 0.0;  // fraction, e.g. 0.07
    double kernelGops640 = 0.0;
    /** C=128 N=10 (1280 ALUs) vs C=8 N=5. */
    double kernelSpeedup1280 = 0.0;
    double appSpeedup1280 = 0.0;
};

/**
 * Compute the headline numbers; pass false to skip the (slower)
 * application simulations.
 */
Headline headlineNumbers(bool include_apps = true,
                         EvalEngine *engine = nullptr);

} // namespace sps::core

#endif // SPS_CORE_EXPERIMENTS_H
