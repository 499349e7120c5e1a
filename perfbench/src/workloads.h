/**
 * @file
 * The four benchmark workloads and the pass loop they share. A run
 * sets its workload up several times (the median is `setup_s`), then
 * repeats fixed passes of work until the measured time is used up.
 * With tracing on, untraced and traced passes alternate, so the
 * per-layer numbers and the tracing overhead come from one process.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupReps = 3;

/** What one pass measured. */
struct Pass
{
    double seconds = 0.0;
    /** One sample per operation (point, request, kernel run), indexed
     *  by operation: every pass runs the same operations, so index i
     *  is the same operation in each. */
    std::vector<double> latencyMs;
    double ops = 0.0;
    double words = 0.0;
};

/** The passes of one kind (untraced or traced) of a run. */
struct PassLog
{
    std::vector<Pass> passes;
    /** Per-layer values of traced passes, one entry per pass. */
    std::map<std::string, std::vector<double>> layers;

    void layer(const std::string &name, double v) { layers[name].push_back(v); }

    /*
     * The host this runs on is shared, and other load slows whole
     * stretches of a run by tens of percent. Reported times therefore
     * follow the min-of-repeats rule the roadmap sets for perf
     * figures: pass time and rates from the fastest pass, and
     * latencies from each operation's fastest time in the run. Every
     * workload runs at least 120 operations per pass, so the latencies
     * keep a tail with ten samples beyond it.
     */
    const Pass &fastest() const;
    std::vector<double> latencySamples() const;
};

/** Median of `reps` timed calls of `setup`, in seconds. */
double timedSetup(const std::function<void()> &setup, int reps = kSetupReps);

/** A pass callback; its argument seeds that pass's work order (0:
 *  the canonical order). */
using PassFn = std::function<void(uint64_t order_seed)>;

/**
 * Alternate untraced and traced passes (traced ones only when
 * opt.trace) until opt.seconds have passed; in trace mode at least one
 * pass of each kind runs. The first pass runs the canonical order; each
 * later one gets its own order seed derived from opt.seed, so a run
 * averages over several orders instead of resting on one.
 *
 * Returns the peak RSS (MiB) once set-up and the first pass are done:
 * a fixed point of the run, because the
 * schedule cache retires rather than frees the maps clear() drops, so
 * RSS keeps growing with every pass that clears it and a run-end
 * reading would depend on how many passes fit in the time. (The
 * canonical first pass keeps that reading independent of the seed.)
 */
double passLoop(const Options &opt, const PassFn &untraced,
                const PassFn &traced);

/**
 * The end-to-end metrics every workload reports, from its untraced
 * passes: sweep_s and the rates from the fastest pass, the latency
 * percentiles from PassLog::latencySamples().
 */
void reportEndToEnd(Report &rep, double setup_s, double rss_mb,
                    const PassLog &log, double paper_err_pct,
                    const char *op_name);

/**
 * Per-layer medians of the traced passes, plus trace.overhead_pct
 * from the fastest untraced and traced passes.
 */
void reportLayers(Report &rep, const PassLog &untraced,
                  const PassLog &traced);

Report runColdSweep(const Options &opt);
Report runSimSweep(const Options &opt);
Report runDaemonMix(const Options &opt);
Report runInterpKernels(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
