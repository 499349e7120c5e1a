/**
 * @file
 * Shared plumbing of the benchmark: run options, the metric report
 * (printed as the final JSON line), the percentile helper, the output
 * digest, and the Figure-15 grid plus paper anchors every workload
 * reports fidelity against.
 *
 * Every timing here is host time (steady_clock); simulated cycles only
 * ever appear as counts and digest inputs.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/experiments.h"
#include "sim/stats.h"
#include "svc/eval_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured time per run; passes repeat until it is used up. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: per-layer metrics. */
    bool trace = false;
    /** Engine pool size of cold_sweep and the daemon_mix set-up. */
    int threads = 4;
};

/**
 * What a workload run measured, by metric name (the units live with
 * the metric list in main.cpp). A per-layer metric the workload does
 * not exercise is absent and prints as 0: that layer did no work.
 */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> layers;

    /** Count `ops` operations whose outputs one check covers; all of
     *  them fail with it, and the reason is printed. */
    void check(bool ok, const std::string &what, uint64_t ops = 1);
};

/** A percentile as reported: its value, the quantile actually used,
 *  and the sample count behind it. */
struct Percentile
{
    double value = 0.0;
    double q = 0.0;
    size_t n = 0;
};

/**
 * Nearest-rank percentile with the reporting rule that at least ten
 * samples lie beyond the reported one: when the requested quantile
 * has fewer than ten samples above it, the highest quantile that has
 * ten is used instead and `q` says which. With ten samples or fewer
 * no rank qualifies; the minimum is returned with q = 1/n.
 */
Percentile percentile(std::vector<double> samples, double q);

/** Plain median (no tail rule: half the samples lie beyond it). */
double median(std::vector<double> samples);

/** Peak resident set size of this process so far (MiB). */
double peakRssMb();

/** FNV digest of outputs, folded in a fixed canonical order. */
struct Digest
{
    sps::Fnv f;

    void add(double v);
    void add(const std::vector<double> &series);
    /** The store codec's bytes of one result. */
    void add(const sps::sim::SimResult &r);
};

/** FNV-1a of a result's store encoding (also its encoded size). */
uint64_t resultHash(const sps::sim::SimResult &r, size_t *bytes = nullptr);

/** Stream words the simulator moved through the SRF for a result. */
double streamWords(const sps::sim::SimResult &r);

/** The Figure-15 grid (C x N) and its canonical submission plan. */
const std::vector<int> &gridClusters();
const std::vector<int> &gridAlus();
sps::svc::AppSweepPlan gridPlan();

/** Figure-15 points from the results of plan.grid, in plan order;
 *  each app's baseline is its grid twin at core::kBaseline. */
std::vector<sps::core::AppPoint>
gridPoints(const sps::svc::AppSweepPlan &plan,
           std::vector<sps::sim::SimResult> grid);

/** A seeded permutation of [0, n); seed 0 is the identity. */
std::vector<size_t> permutation(size_t n, uint64_t seed);

/**
 * The paper's four headline anchors. A workload fills what its own
 * outputs give it; `has*` marks which halves were measured.
 */
struct Anchors
{
    double kernel640 = 0.0;
    double app640 = 0.0;
    double kernel1280 = 0.0;
    double app1280 = 0.0;
    bool hasKernel = false;
    bool hasApp = false;

    /** Kernel anchors from the (warm) schedule cache. */
    void setKernel(const sps::core::Headline &h);
    /** App anchors: harmonic-mean speedups from Figure-15 points. */
    void setApp(const std::vector<sps::core::AppPoint> &pts);

    /** Mean |measured/paper - 1| over the measured anchors, in %;
     *  prints the per-anchor table. */
    double errorPct() const;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
