/**
 * @file
 * Figure 15: application performance across the (C, N) grid on the
 * cycle-accurate stream-level simulator -- speedup over the C=8 N=5
 * machine per configuration, with sustained GOPS annotated at the
 * corner points, plus the harmonic-mean row.
 *
 * Observability options:
 *   --trace FILE       record one application run (default RENDER at
 *                      the C=8 N=5 baseline) as a Chrome trace_event
 *                      JSON, loadable in Perfetto / chrome://tracing
 *   --trace-app NAME   which application --trace records
 *   --counters FILE    per-run hardware-counter CSV for every (app,
 *                      C, N) grid point
 *   --energy FILE      per-run energy breakdown + bottleneck waterfall
 *                      CSV for every (app, C, N) grid point
 *   --cache-dir DIR    attach the disk-backed result store rooted at
 *                      DIR: warm entries skip schedule compilation and
 *                      re-simulation, cold entries persist for the
 *                      next run
 */
#include <cstdio>
#include <cstring>
#include <map>

#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/design.h"
#include "core/eval_engine.h"
#include "core/experiments.h"
#include "obs/metrics.h"
#include "svc/eval_service.h"
#include "trace/chrome_trace.h"
#include "trace/counters_csv.h"
#include "trace/tracer.h"
#include "workloads/suite.h"

namespace {

/** Run one app at the baseline with the tracer attached and export. */
int
exportTrace(const std::string &app_name, const std::string &path)
{
    for (const auto &app : sps::workloads::appSuite()) {
        if (app.name != app_name)
            continue;
        sps::core::StreamProcessorDesign d(sps::core::kBaseline);
        sps::sim::StreamProcessor proc = d.makeProcessor();
        sps::stream::StreamProgram prog =
            app.build(sps::core::kBaseline, proc.srf());
        sps::trace::Tracer tracer;
        sps::sim::RunOptions opts;
        opts.tracer = &tracer;
        sps::sim::SimResult res = proc.run(prog, opts);
        if (!sps::trace::writeChromeTrace(tracer, path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %zu trace events for %s (%lld cycles) to "
                    "%s -- open in https://ui.perfetto.dev\n",
                    tracer.size(), app_name.c_str(),
                    static_cast<long long>(res.cycles), path.c_str());
        return 0;
    }
    std::fprintf(stderr, "unknown application %s\n", app_name.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using sps::TextTable;
    std::string trace_path, trace_app = "RENDER", counters_path,
        energy_path, cache_dir;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--trace") == 0)
            trace_path = need("--trace");
        else if (std::strcmp(argv[i], "--trace-app") == 0)
            trace_app = need("--trace-app");
        else if (std::strcmp(argv[i], "--counters") == 0)
            counters_path = need("--counters");
        else if (std::strcmp(argv[i], "--energy") == 0)
            energy_path = need("--energy");
        else if (std::strcmp(argv[i], "--cache-dir") == 0)
            cache_dir = need("--cache-dir");
        else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 1;
        }
    }

    sps::core::EvalEngine *engine = &sps::core::EvalEngine::global();
    // Leaked on purpose: the global schedule cache keeps the pointer
    // past the end of main.
    sps::store::ResultStore *store = nullptr;
    if (!cache_dir.empty()) {
        store = new sps::store::ResultStore(cache_dir);
        engine->cache().attachStore(store);
    }
    sps::svc::EvalService service(engine, store);

    std::vector<int> cs{8, 16, 32, 64, 128};
    std::vector<int> ns{2, 5, 10, 14};
    auto points = service.appPerformance(cs, ns);

    if (!counters_path.empty()) {
        sps::CsvWriter w;
        sps::trace::beginCountersCsv(w, {"app", "C", "N"});
        for (const auto &pt : points)
            sps::trace::appendCountersRow(
                w,
                {pt.app, std::to_string(pt.size.clusters),
                 std::to_string(pt.size.alusPerCluster)},
                pt.result);
        if (!w.writeFile(counters_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         counters_path.c_str());
            return 1;
        }
        std::printf("wrote per-run hardware counters to %s\n",
                    counters_path.c_str());
    }

    if (!energy_path.empty()) {
        sps::CsvWriter w;
        sps::trace::beginEnergyCsv(w, {"app", "C", "N"});
        for (const auto &pt : points)
            sps::trace::appendEnergyRow(
                w,
                {pt.app, std::to_string(pt.size.clusters),
                 std::to_string(pt.size.alusPerCluster)},
                pt.result);
        if (!w.writeFile(energy_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         energy_path.c_str());
            return 1;
        }
        std::printf("wrote per-run energy breakdowns to %s\n",
                    energy_path.c_str());
    }

    std::map<std::string, std::map<std::pair<int, int>,
                                   sps::core::AppPoint>> by_app;
    for (const auto &pt : points)
        by_app[pt.app][{pt.size.alusPerCluster, pt.size.clusters}] =
            pt;

    const char *apps[] = {"RENDER", "DEPTH", "CONV",
                          "QRD",    "FFT1K", "FFT4K"};
    for (int n : ns) {
        TextTable t;
        std::vector<std::string> head{"App (N=" + std::to_string(n) +
                                      ")"};
        for (int c : cs)
            head.push_back("C=" + std::to_string(c));
        t.header(head);
        std::vector<std::vector<double>> cols(cs.size());
        for (const char *app : apps) {
            std::vector<std::string> row{app};
            for (size_t i = 0; i < cs.size(); ++i) {
                const auto &pt = by_app[app][{n, cs[i]}];
                row.push_back(TextTable::num(pt.speedup, 2));
                cols[i].push_back(pt.speedup);
            }
            t.row(row);
        }
        std::vector<std::string> hm{"HARMONIC MEAN"};
        for (auto &col : cols)
            hm.push_back(TextTable::num(sps::harmonicMean(col), 2));
        t.row(hm);
        std::printf("%s\n", t.toString().c_str());
    }

    // GOPS annotations at the paper's corner points.
    TextTable g;
    g.header({"App", "GOPS @ C=8 N=5", "GOPS @ C=128 N=10"});
    for (const char *app : apps) {
        g.row({app,
               TextTable::num(by_app[app][{5, 8}].gops, 1),
               TextTable::num(by_app[app][{10, 128}].gops, 1)});
    }
    std::printf("Figure 15: application speedups over C=8 N=5 "
                "(tables above) and sustained GOPS:\n\n%s\n",
                g.toString().c_str());

    if (store) {
        // Leaked like the store: the global schedule cache keeps a
        // pointer into it past the end of main.
        auto *registry = new sps::obs::MetricsRegistry();
        engine->cache().attachMetrics(registry);
        store->attachMetrics(registry);
        service.attachMetrics(registry);
        std::printf("cache tiers (--cache-dir %s):\n",
                    cache_dir.c_str());
        for (const auto &line :
             sps::obs::counterLines(registry->snapshot()))
            std::printf("  %s\n", line.c_str());
        std::printf("\n");
    }

    if (!trace_path.empty())
        return exportTrace(trace_app, trace_path);
    return 0;
}
