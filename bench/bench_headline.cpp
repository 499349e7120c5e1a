/**
 * @file
 * The abstract's headline comparison: the 640-ALU C=128 N=5 machine
 * (and the 1280-ALU C=128 N=10 machine) against the 40-ALU C=8 N=5
 * baseline -- kernel and application speedups, sustained kernel GOPS,
 * and per-ALU area/energy degradations -- next to the published
 * numbers.
 *
 * Also reports evaluation-engine throughput: wall-clock for the full
 * figure-suite computation serial vs parallel and cold vs warm
 * caches, with the recompilation and re-simulation counts that prove
 * the warm runs compile and simulate nothing. App runs route through
 * svc::EvalService; pass --cache-dir DIR to add the disk tier (a warm
 * DIR makes even the "cold" rows compile/simulate nothing) and a
 * cache-tier counter section prints at the end.
 *
 * Reports functional-interpreter throughput (words/sec per Table-4
 * kernel: reference engine, lowered engine forced scalar, and lowered
 * engine on the host's best SIMD backend) and writes the numbers to
 * BENCH_interp.json so the perf trajectory is recorded across PRs.
 * The SIMD aggregate speedup is gated (>= 10x over the reference) via
 * the exit code, alongside the energy within-2x gate.
 *
 * Finally cross-checks the measured energy model against the
 * analytical one: intercluster energy-per-ALU-op scaling at
 * C = 1..16 (N = 5), aggregated over the app suite and normalized to
 * C = 8, next to the analytical Figure 10 curve -- written to
 * BENCH_energy.json with the per-point measured/analytic ratios.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "common/table.h"
#include "core/design.h"
#include "core/eval_engine.h"
#include "core/experiments.h"
#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "interp_bench_util.h"
#include "obs/metrics.h"
#include "svc/eval_service.h"
#include "vlsi/cost_model.h"
#include "vlsi/sweep.h"
#include "workloads/suite.h"

namespace {

/** One full figure-suite computation (the work bench_export_all
 *  formats), with the app grid routed through the evaluation
 *  service; returns wall-clock seconds. */
double
runFigureSuite(sps::core::EvalEngine &eng,
               sps::svc::EvalService &service)
{
    using namespace sps;
    auto t0 = std::chrono::steady_clock::now();
    vlsi::CostModel model;
    vlsi::intraclusterSweep(model, 8, vlsi::defaultIntraRange(), 5,
                            &eng.pool());
    vlsi::interclusterSweep(model, 5, vlsi::defaultInterRange(), 8,
                            &eng.pool());
    core::kernelIntraSpeedups(core::kGridN, 8, &eng);
    core::kernelInterSpeedups(core::kGridC, 5, &eng);
    core::table5PerfPerArea(core::kGridN, core::kGridC, &eng);
    service.appPerformance(core::kGridC, core::kGridN);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
}

/** Seconds per call of `fn`, measured over at least 0.1 s. */
template <typename Fn>
double
secondsPerRun(Fn &&fn)
{
    fn(); // warm caches outside the timed region
    int reps = 0;
    double secs = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    do {
        fn();
        ++reps;
        secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    } while (secs < 0.1 && reps < 10000);
    return secs / reps;
}

struct InterpRow
{
    std::string name;
    int64_t words = 0;
    double refWps = 0.0;
    double scalarWps = 0.0;
    double simdWps = 0.0;
    /** Fraction of steady-state body ops in fused regions under the
     *  default (partial) megastrip-fusion policy. */
    double fusedFraction = 0.0;
};

/**
 * Interpreter throughput per Table-4 kernel at C = 8: stream words
 * moved per second (inputs + outputs) through the reference engine,
 * the lowered engine forced scalar, and the lowered engine on the
 * host's best SIMD backend. The aggregate speedup is total reference
 * time over total SIMD time for the whole suite (one run each).
 */
std::vector<InterpRow>
interpThroughput(int c, int64_t records, double *aggregate)
{
    const sps::interp::SimdBackend best =
        sps::interp::bestSimdBackend();
    std::vector<InterpRow> rows;
    double ref_total = 0.0, simd_total = 0.0;
    for (const auto &entry : sps::workloads::kernelSuite()) {
        auto inputs = sps::bench::makeTable4Inputs(entry.name, records);
        InterpRow row;
        row.name = entry.name;
        row.words = sps::bench::wordsPerRun(
            inputs, sps::interp::runKernel(*entry.kernel, c, inputs));
        row.fusedFraction =
            sps::interp::LoweredCache::global()
                .get(*entry.kernel)
                .fusedOpFraction(sps::interp::FusionPolicy::Partial);
        double ref = secondsPerRun([&] {
            sps::interp::runKernelReference(*entry.kernel, c, inputs);
        });
        double scalar = secondsPerRun([&] {
            sps::interp::runKernel(*entry.kernel, c, inputs,
                                   sps::interp::SimdBackend::Scalar);
        });
        double simd = secondsPerRun([&] {
            sps::interp::runKernel(*entry.kernel, c, inputs, best);
        });
        row.refWps = static_cast<double>(row.words) / ref;
        row.scalarWps = static_cast<double>(row.words) / scalar;
        row.simdWps = static_cast<double>(row.words) / simd;
        ref_total += ref;
        simd_total += simd;
        rows.push_back(row);
    }
    *aggregate = simd_total > 0.0 ? ref_total / simd_total : 0.0;
    return rows;
}

struct EnergyScalePoint
{
    int clusters = 0;
    double measuredNorm = 0.0; // scaled E/op, normalized to C=8
    double analyticNorm = 0.0; // Figure 10 curve, normalized to C=8
    double ratio = 0.0;        // measured / analytic
};

/**
 * Measured intercluster energy-per-ALU-op scaling: run the whole app
 * suite at each C (N = 5) through the simulator, aggregate the
 * paper-scope (no DRAM) energy over total ALU ops, and normalize to
 * the C = 8 baseline -- the measured counterpart of the analytical
 * Figure 10 energy curve.
 */
std::vector<EnergyScalePoint>
energyScaling(sps::core::EvalEngine &eng)
{
    using namespace sps;
    const std::vector<int> cs{1, 2, 4, 8, 16};
    auto apps = workloads::appSuite();
    struct Cell
    {
        double ew = 0.0;
        double ops = 0.0;
    };
    auto cells = eng.map(cs.size() * apps.size(), [&](size_t idx) {
        vlsi::MachineSize size{cs[idx / apps.size()], 5};
        const auto &app = apps[idx % apps.size()];
        core::StreamProcessorDesign d(size);
        sim::StreamProcessor proc = d.makeProcessor();
        stream::StreamProgram prog = app.build(size, proc.srf());
        sim::SimResult res = proc.run(prog);
        Cell cell;
        cell.ew = res.energy.scaledTotalEw();
        cell.ops = static_cast<double>(res.energy.aluOps);
        return cell;
    });

    std::map<int, Cell> by_c;
    for (size_t i = 0; i < cells.size(); ++i) {
        auto &acc = by_c[cs[i / apps.size()]];
        acc.ew += cells[i].ew;
        acc.ops += cells[i].ops;
    }

    vlsi::CostModel model;
    double measured_ref = by_c[8].ew / by_c[8].ops;
    double analytic_ref = model.energyPerAluOp({8, 5});
    std::vector<EnergyScalePoint> pts;
    for (int c : cs) {
        EnergyScalePoint pt;
        pt.clusters = c;
        pt.measuredNorm =
            (by_c[c].ew / by_c[c].ops) / measured_ref;
        pt.analyticNorm =
            model.energyPerAluOp({c, 5}) / analytic_ref;
        pt.ratio = pt.measuredNorm / pt.analyticNorm;
        pts.push_back(pt);
    }
    return pts;
}

void
writeEnergyJson(const char *path,
                const std::vector<EnergyScalePoint> &pts)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"alus_per_cluster\": 5,\n"
                 "  \"normalized_to_clusters\": 8,\n"
                 "  \"energy_per_alu_op\": [\n");
    for (size_t i = 0; i < pts.size(); ++i) {
        const EnergyScalePoint &p = pts[i];
        std::fprintf(f,
                     "    {\"clusters\": %d, \"measured\": %.6f, "
                     "\"analytic\": %.6f, \"ratio\": %.4f}%s\n",
                     p.clusters, p.measuredNorm, p.analyticNorm,
                     p.ratio, i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

void
writeInterpJson(const char *path, int c, int64_t records,
                const std::vector<InterpRow> &rows, double aggregate)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"clusters\": %d,\n  \"records\": %lld,\n"
                 "  \"simd_backend\": \"%s\",\n  \"kernels\": [\n",
                 c, static_cast<long long>(records),
                 sps::interp::simdBackendName(
                     sps::interp::bestSimdBackend()));
    for (size_t i = 0; i < rows.size(); ++i) {
        const InterpRow &r = rows[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"words_per_run\": %lld, "
            "\"reference_words_per_sec\": %.4e, "
            "\"scalar_words_per_sec\": %.4e, "
            "\"simd_words_per_sec\": %.4e, "
            "\"scalar_speedup\": %.3f, \"speedup\": %.3f, "
            "\"fused_fraction\": %.3f}%s\n",
            r.name.c_str(), static_cast<long long>(r.words), r.refWps,
            r.scalarWps, r.simdWps,
            r.refWps > 0.0 ? r.scalarWps / r.refWps : 0.0,
            r.refWps > 0.0 ? r.simdWps / r.refWps : 0.0,
            r.fusedFraction, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"aggregate_speedup\": %.3f\n}\n",
                 aggregate);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    using sps::TextTable;
    const std::string usage = "bench_headline [--cache-dir DIR]";
    std::string cache_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache-dir") == 0)
            cache_dir = sps::bench::flagValue(argc, argv, &i, usage);
        else
            sps::bench::usageExit(usage, std::string("unknown option ") +
                                             argv[i]);
    }
    // Leaked on purpose: the global schedule cache keeps the pointer
    // past the end of main.
    sps::store::ResultStore *store = nullptr;
    if (!cache_dir.empty()) {
        store = new sps::store::ResultStore(cache_dir);
        sps::sched::ScheduleCache::global().attachStore(store);
    }

    sps::core::Headline h = sps::core::headlineNumbers(true);

    TextTable t;
    t.header({"Metric", "measured", "paper"});
    t.row({"640-ALU kernel speedup (HM)",
           TextTable::num(h.kernelSpeedup640, 1) + "x", "15.3x"});
    t.row({"640-ALU app speedup (HM)",
           TextTable::num(h.appSpeedup640, 1) + "x", "8.0x"});
    t.row({"640-ALU kernel GOPS (mean)",
           TextTable::num(h.kernelGops640, 0), ">300"});
    t.row({"640-ALU area/ALU degradation",
           TextTable::num(100 * h.areaPerAluDegradation640, 1) + "%",
           "2%"});
    t.row({"640-ALU energy/op degradation",
           TextTable::num(100 * h.energyPerOpDegradation640, 1) + "%",
           "7%"});
    t.row({"1280-ALU kernel speedup (HM)",
           TextTable::num(h.kernelSpeedup1280, 1) + "x", "27.9x"});
    t.row({"1280-ALU app speedup (HM)",
           TextTable::num(h.appSpeedup1280, 1) + "x", "10.4x"});

    sps::core::StreamProcessorDesign big({128, 10});
    t.row({"1280-ALU peak GOPS (subword x2)",
           TextTable::num(2 * big.peakGops(), 0), ">1000"});
    t.row({"1280-ALU power (W)",
           TextTable::num(big.powerWatts(), 1), "<10"});

    std::printf("Headline: scaled machines vs the 40-ALU baseline\n\n"
                "%s\n",
                t.toString().c_str());

    // --- Evaluation-engine throughput: the full figure suite ---
    sps::core::EvalEngine serial(1);
    sps::core::EvalEngine &parallel = sps::core::EvalEngine::global();
    auto &cache = parallel.cache();
    sps::svc::EvalService serial_svc(&serial, store);
    sps::svc::EvalService parallel_svc(&parallel, store);

    // "cold" empties the in-process tiers (schedule cache + service
    // memory); with --cache-dir the disk tier stays warm, which is
    // exactly what the cold rows then demonstrate.
    auto sims = [](const sps::svc::EvalService &s) {
        return s.counters().computed;
    };
    cache.clear();
    serial_svc.clearMemory();
    double cold_serial = runFigureSuite(serial, serial_svc);
    auto after_cold = cache.counters();
    uint64_t sims_cold = sims(serial_svc);
    double warm_serial = runFigureSuite(serial, serial_svc);
    auto after_warm = cache.counters();
    uint64_t sims_warm = sims(serial_svc) - sims_cold;

    cache.clear();
    parallel_svc.clearMemory();
    double cold_parallel = runFigureSuite(parallel, parallel_svc);
    auto after_cold_p = cache.counters();
    uint64_t sims_cold_p = sims(parallel_svc);
    double warm_parallel = runFigureSuite(parallel, parallel_svc);
    auto after_warm_p = cache.counters();
    uint64_t sims_warm_p = sims(parallel_svc) - sims_cold_p;

    TextTable e;
    e.header({"Figure-suite run", "threads", "wall (s)",
              "kernel compiles", "app sims"});
    auto row = [&](const char *name, int threads, double secs,
                   uint64_t compiles, uint64_t sim_count) {
        e.row({name, std::to_string(threads),
               TextTable::num(secs, 3), std::to_string(compiles),
               std::to_string(sim_count)});
    };
    row("serial, cold cache", serial.threadCount(), cold_serial,
        after_cold.misses, sims_cold);
    row("serial, warm cache", serial.threadCount(), warm_serial,
        after_warm.misses - after_cold.misses, sims_warm);
    row("parallel, cold cache", parallel.threadCount(), cold_parallel,
        after_cold_p.misses, sims_cold_p);
    row("parallel, warm cache", parallel.threadCount(), warm_parallel,
        after_warm_p.misses - after_cold_p.misses, sims_warm_p);

    std::printf("Evaluation engine: full figure-suite wall-clock\n\n"
                "%s\n"
                "parallel speedup over serial (cold): %.2fx; "
                "warm-cache speedup (serial): %.2fx\n",
                e.toString().c_str(),
                cold_parallel > 0.0 ? cold_serial / cold_parallel
                                    : 0.0,
                warm_serial > 0.0 ? cold_serial / warm_serial : 0.0);

    // --- Cache tiers: where every request was answered ---
    // Attached after the timed runs, which pay nothing for it: the
    // registry reads each component's own counters in place. Leaked
    // like the store, since the global schedule cache keeps a pointer
    // into it past the end of main.
    auto *registry = new sps::obs::MetricsRegistry();
    cache.attachMetrics(registry);
    if (store)
        store->attachMetrics(registry);
    parallel_svc.attachMetrics(registry);
    std::printf("\nCache tiers%s%s (schedule cache + result store + "
                "parallel eval service):\n",
                cache_dir.empty() ? "" : ", --cache-dir ",
                cache_dir.c_str());
    for (const auto &line : sps::obs::counterLines(registry->snapshot()))
        std::printf("  %s\n", line.c_str());

    // --- Interpreter throughput: reference vs scalar vs SIMD ---
    const int interp_c = 8;
    const int64_t interp_records = 8192;
    double aggregate = 0.0;
    std::vector<InterpRow> rows =
        interpThroughput(interp_c, interp_records, &aggregate);

    TextTable it;
    it.header({"Kernel", "ref Mwords/s", "scalar Mwords/s",
               "simd Mwords/s", "speedup", "fused frac"});
    for (const InterpRow &r : rows)
        it.row({r.name, TextTable::num(r.refWps / 1e6, 1),
                TextTable::num(r.scalarWps / 1e6, 1),
                TextTable::num(r.simdWps / 1e6, 1),
                TextTable::num(r.refWps > 0.0 ? r.simdWps / r.refWps
                                              : 0.0,
                               2) +
                    "x",
                TextTable::num(r.fusedFraction, 2)});
    const double interp_gate = 10.0;
    const bool interp_fast = aggregate >= interp_gate;
    std::printf("\nInterpreter throughput: Table-4 kernels at C=%d, "
                "%lld records (simd backend: %s)\n\n%s\n"
                "aggregate simd-vs-reference speedup: %.2fx "
                "(gate: >= %.0fx: %s; written to BENCH_interp.json)\n",
                interp_c, static_cast<long long>(interp_records),
                sps::interp::simdBackendName(
                    sps::interp::bestSimdBackend()),
                it.toString().c_str(), aggregate, interp_gate,
                interp_fast ? "yes" : "NO");
    writeInterpJson("BENCH_interp.json", interp_c, interp_records,
                    rows, aggregate);

    // --- Energy model: measured vs analytical Figure 10 scaling ---
    std::vector<EnergyScalePoint> epts = energyScaling(parallel);
    TextTable et;
    et.header({"C (N=5)", "measured E/op", "analytic E/op",
               "ratio"});
    bool within2x = true;
    for (const EnergyScalePoint &p : epts) {
        et.row({std::to_string(p.clusters),
                TextTable::num(p.measuredNorm, 3),
                TextTable::num(p.analyticNorm, 3),
                TextTable::num(p.ratio, 2) + "x"});
        if (p.ratio < 0.5 || p.ratio > 2.0)
            within2x = false;
    }
    std::printf("\nEnergy: measured vs analytical intercluster "
                "energy per ALU op (normalized to C=8)\n\n%s\n"
                "every point within 2x of the Figure 10 curve: %s "
                "(written to BENCH_energy.json)\n",
                et.toString().c_str(), within2x ? "yes" : "NO");
    writeEnergyJson("BENCH_energy.json", epts);
    return within2x && interp_fast ? 0 : 1;
}
