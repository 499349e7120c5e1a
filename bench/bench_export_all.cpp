/**
 * @file
 * Exports the data series behind every figure as CSV files (into the
 * directory given as argv[1], default "results") so the paper's plots
 * can be regenerated with any plotting tool. All series are produced
 * through the evaluation engine: design points run concurrently
 * (pass --serial to force one thread) and kernel compilations memoize
 * in the shared schedule cache; the deterministic axis-order
 * collection keeps the CSVs byte-identical to a serial export. An
 * unknown flag, a flag missing its value or a --max-cache-bytes that
 * is not a number exits 2 with the usage line before any work.
 *
 * Persistence:
 *   --cache-dir DIR  attach the disk-backed result store rooted at
 *                    DIR: schedules and app simulation results read
 *                    through it (memory -> disk -> compute) and
 *                    computed entries persist, so a second process
 *                    pointed at a warm DIR re-exports everything with
 *                    0 schedule compiles and 0 re-simulations --
 *                    byte-identical CSVs. Also writes metrics.prom
 *                    (the run's schedule-cache, store and service
 *                    metrics in the Prometheus text format).
 *   --expect-warm    exit nonzero if the run compiled any schedule or
 *                    simulated any app (the warm-cache CI assertion).
 *   --max-cache-bytes N  bound the --cache-dir store: writes that
 *                    cross the budget evict least-recently-used
 *                    entries (eviction counters land in
 *                    metrics.prom).
 *
 * Client mode:
 *   --server SOCK    evaluate the Figure-15 app grid through a
 *                    resident sps_evald daemon listening on the
 *                    Unix-domain socket SOCK instead of in-process.
 *                    Results come back bit-identical (the store
 *                    codec's encoding rides the wire), so the CSVs
 *                    are byte-identical to an in-process run; many
 *                    concurrent client processes share the daemon's
 *                    warm tiers and dedup against each other.
 *                    metrics.prom then is a scrape of the daemon's
 *                    cumulative metrics, and --expect-warm asserts
 *                    the daemon simulated nothing for *this* run (the
 *                    compute-tier delta while we were connected).
 *   --metrics [prom|json]  scrape verb (requires --server): fetch a
 *                    live metrics snapshot from the daemon
 *                    (MetricsRequest round trip), print it to stdout
 *                    in the Prometheus text format (default) or as
 *                    JSON, and exit without exporting anything --
 *                    `bench_export_all --server SOCK --metrics` is
 *                    the command-line scrape for a running daemon.
 */
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "common/csv.h"
#include "core/eval_engine.h"
#include "core/experiments.h"
#include "obs/metrics.h"
#include "svc/eval_client.h"
#include "svc/eval_service.h"
#include "trace/counters_csv.h"
#include "vlsi/sweep.h"

namespace {

std::string g_dir = "results";
sps::core::EvalEngine *g_engine = nullptr;
sps::svc::EvalService *g_service = nullptr;
sps::svc::EvalClient *g_client = nullptr;

std::string
path(const char *name)
{
    return g_dir + "/" + name;
}

void
writeMetrics(const sps::obs::MetricsSnapshot &snap)
{
    std::ofstream(path("metrics.prom"))
        << sps::obs::renderPrometheus(snap);
}

/** Requests the daemon simulated, per its scraped tier counter. */
int64_t
computeTier(const sps::obs::MetricsSnapshot &snap)
{
    return snap.value("sps_requests_tier_total", "tier=\"compute\"");
}

void
exportIntraInterSweeps()
{
    using namespace sps::vlsi;
    CostModel model;
    sps::ThreadPool *pool = &g_engine->pool();
    {
        SweepSeries s =
            intraclusterSweep(model, 8, defaultIntraRange(), 5, pool);
        sps::CsvWriter w;
        w.header({"N", "area_per_alu_norm", "energy_per_op_norm",
                  "t_intra_fo4", "t_inter_fo4"});
        auto a = s.normalizedAreaPerAlu();
        auto e = s.normalizedEnergyPerOp();
        for (size_t i = 0; i < s.points.size(); ++i) {
            const auto &pt = s.points[i];
            w.row({std::to_string(pt.size.alusPerCluster),
                   std::to_string(a[i]), std::to_string(e[i]),
                   std::to_string(pt.delay.intraFo4),
                   std::to_string(pt.delay.interFo4)});
        }
        w.writeFile(path("fig06_07_08_intracluster.csv"));
    }
    {
        SweepSeries s =
            interclusterSweep(model, 5, defaultInterRange(), 8, pool);
        sps::CsvWriter w;
        w.header({"C", "area_per_alu_norm", "energy_per_op_norm",
                  "t_inter_fo4"});
        auto a = s.normalizedAreaPerAlu();
        auto e = s.normalizedEnergyPerOp();
        for (size_t i = 0; i < s.points.size(); ++i) {
            const auto &pt = s.points[i];
            w.row({std::to_string(pt.size.clusters),
                   std::to_string(a[i]), std::to_string(e[i]),
                   std::to_string(pt.delay.interFo4)});
        }
        w.writeFile(path("fig09_10_11_intercluster.csv"));
    }
    {
        sps::CsvWriter w;
        w.header({"C", "N", "total_alus", "area_per_alu_norm"});
        double ref = model.areaPerAlu({32, 5});
        for (int n : {2, 5, 16})
            for (int c : {8, 16, 32, 64, 128, 256})
                w.row({std::to_string(c), std::to_string(n),
                       std::to_string(c * n),
                       std::to_string(model.areaPerAlu({c, n}) /
                                      ref)});
        w.writeFile(path("fig12_combined.csv"));
    }
}

void
exportKernelSpeedups()
{
    auto dump = [&](const sps::core::KernelSpeedupData &d,
                    const char *axis, const char *file) {
        sps::CsvWriter w;
        std::vector<std::string> head{"kernel"};
        for (int x : d.axis)
            head.push_back(std::string(axis) + std::to_string(x));
        w.header(head);
        for (const auto &s : d.series) {
            std::vector<std::string> row{s.name};
            for (double v : s.values)
                row.push_back(std::to_string(v));
            w.row(row);
        }
        w.writeFile(path(file));
    };
    dump(sps::core::kernelIntraSpeedups(sps::core::kGridN, 8, g_engine),
         "N", "fig13_kernel_intra.csv");
    dump(sps::core::kernelInterSpeedups(sps::core::kGridC, 5, g_engine),
         "C", "fig14_kernel_inter.csv");
}

void
exportTable5()
{
    auto t = sps::core::table5PerfPerArea(sps::core::kGridN,
                                          sps::core::kGridC, g_engine);
    sps::CsvWriter w;
    std::vector<std::string> head{"N"};
    for (int c : t.cValues)
        head.push_back("C" + std::to_string(c));
    w.header(head);
    for (size_t i = 0; i < t.nValues.size(); ++i) {
        std::vector<std::string> row{std::to_string(t.nValues[i])};
        for (double v : t.value[i])
            row.push_back(std::to_string(v));
        w.row(row);
    }
    w.writeFile(path("table5_perf_per_area.csv"));
}

void
exportFig15()
{
    // The app grid routes through the evaluation service: submissions
    // batch onto the engine pool, identical points (the baseline and
    // its grid twin) dedup, and results read/write the disk store. In
    // --server mode the same sweep plan rides the socket to the
    // daemon instead; the result bytes are identical either way.
    const auto &cs = sps::core::kGridC, &ns = sps::core::kGridN;
    auto pts = g_client ? g_client->appPerformance(cs, ns)
                        : g_service->appPerformance(cs, ns);
    sps::CsvWriter w;
    w.header({"app", "C", "N", "cycles", "speedup", "gops"});
    for (const auto &pt : pts) {
        w.row({pt.app, std::to_string(pt.size.clusters),
               std::to_string(pt.size.alusPerCluster),
               std::to_string(pt.cycles), std::to_string(pt.speedup),
               std::to_string(pt.gops)});
    }
    w.writeFile(path("fig15_apps.csv"));

    // Per-run hardware counters for every grid point (the data behind
    // any "why is this point slow" question about Figure 15).
    sps::CsvWriter counters;
    sps::trace::beginCountersCsv(counters, {"app", "C", "N"});
    for (const auto &pt : pts)
        sps::trace::appendCountersRow(
            counters,
            {pt.app, std::to_string(pt.size.clusters),
             std::to_string(pt.size.alusPerCluster)},
            pt.result);
    counters.writeFile(path("fig15_app_counters.csv"));

    // Per-run energy breakdown + bottleneck waterfall (the data
    // behind any "where does the power go" question about Figure 15).
    sps::CsvWriter energy;
    sps::trace::beginEnergyCsv(energy, {"app", "C", "N"});
    for (const auto &pt : pts)
        sps::trace::appendEnergyRow(
            energy,
            {pt.app, std::to_string(pt.size.clusters),
             std::to_string(pt.size.alusPerCluster)},
            pt.result);
    energy.writeFile(path("fig15_app_energy.csv"));
}

} // namespace

int
main(int argc, char **argv)
{
    bool serial = false;
    bool expect_warm = false;
    bool metrics = false;
    bool metrics_json = false;
    std::string cache_dir;
    std::string server_sock;
    unsigned long long max_cache_bytes = 0;
    const std::string usage =
        "bench_export_all [OUTDIR] [--serial] [--expect-warm] "
        "[--cache-dir DIR] [--max-cache-bytes N] [--server SOCK] "
        "[--metrics [prom|json]]";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--serial") == 0)
            serial = true;
        else if (std::strcmp(argv[i], "--expect-warm") == 0)
            expect_warm = true;
        else if (std::strcmp(argv[i], "--metrics") == 0) {
            metrics = true;
            // Optional format operand; anything else is the usual
            // positional output directory.
            if (i + 1 < argc &&
                (std::strcmp(argv[i + 1], "prom") == 0 ||
                 std::strcmp(argv[i + 1], "json") == 0))
                metrics_json = std::strcmp(argv[++i], "json") == 0;
        }
        else if (std::strcmp(argv[i], "--cache-dir") == 0)
            cache_dir = sps::bench::flagValue(argc, argv, &i, usage);
        else if (std::strcmp(argv[i], "--server") == 0)
            server_sock = sps::bench::flagValue(argc, argv, &i, usage);
        else if (std::strcmp(argv[i], "--max-cache-bytes") == 0) {
            std::string v = sps::bench::flagValue(argc, argv, &i, usage);
            const char *end = v.data() + v.size();
            auto [stop, ec] =
                std::from_chars(v.data(), end, max_cache_bytes);
            if (ec != std::errc() || stop != end)
                sps::bench::usageExit(
                    usage, "--max-cache-bytes: not a number: " + v);
        }
        else if (sps::bench::isFlag(argv[i]))
            sps::bench::usageExit(usage, std::string("unknown option ") +
                                             argv[i]);
        else
            g_dir = argv[i];
    }

    // The metrics verb is a pure scrape: connect, fetch, print, exit.
    if (metrics) {
        if (server_sock.empty()) {
            std::fprintf(stderr,
                         "--metrics requires --server SOCK\n");
            return 2;
        }
        try {
            sps::svc::EvalClient client(server_sock);
            sps::obs::MetricsSnapshot snap = client.metrics();
            std::fputs(metrics_json
                           ? sps::obs::renderJson(snap).c_str()
                           : sps::obs::renderPrometheus(snap).c_str(),
                       stdout);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "metrics scrape failed: %s\n",
                         e.what());
            return 1;
        }
        return 0;
    }

    sps::core::EvalEngine serial_engine(serial ? 1 : 0);
    g_engine = serial ? &serial_engine
                      : &sps::core::EvalEngine::global();

    // The store and the registry outlive every consumer -- including
    // the global schedule cache, whose destructor order against
    // locals is not ours to control -- so both are deliberately
    // leaked.
    sps::store::ResultStore *store = nullptr;
    sps::obs::MetricsRegistry *registry = nullptr;
    if (!cache_dir.empty()) {
        store = new sps::store::ResultStore(cache_dir,
                                            max_cache_bytes);
        registry = new sps::obs::MetricsRegistry();
        g_engine->cache().attachStore(store);
        g_engine->cache().attachMetrics(registry);
        store->attachMetrics(registry);
    }
    sps::svc::EvalService service(g_engine, store);
    if (registry)
        service.attachMetrics(registry);
    g_service = &service;

    // --server: the Figure-15 app grid evaluates in the daemon; the
    // figure-12-and-earlier sweeps and kernel exports stay local
    // (they are pure cost-model / schedule work, not app sims). The
    // starting scrape turns the daemon's cumulative counters into
    // this run's delta for --expect-warm.
    sps::svc::EvalClient *client = nullptr;
    sps::obs::MetricsSnapshot server_before;
    if (!server_sock.empty()) {
        try {
            client = new sps::svc::EvalClient(server_sock);
            server_before = client->metrics();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        g_client = client;
    }

    std::error_code ec;
    std::filesystem::create_directories(g_dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", g_dir.c_str(),
                     ec.message().c_str());
        return 1;
    }
    try {
        exportIntraInterSweeps();
        exportKernelSpeedups();
        exportTable5();
        exportFig15();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "export failed: %s\n", e.what());
        return 1;
    }
    auto ctr = g_engine->cache().counters();
    auto svc_ctr = service.counters();
    std::printf("wrote figure data CSVs to %s/ "
                "(%d threads; schedule cache: %llu compiles, "
                "%llu disk hits, %llu hits; apps: %llu sims, "
                "%llu disk hits)\n",
                g_dir.c_str(), g_engine->threadCount(),
                static_cast<unsigned long long>(ctr.misses),
                static_cast<unsigned long long>(ctr.diskHits),
                static_cast<unsigned long long>(ctr.hits),
                static_cast<unsigned long long>(svc_ctr.computed),
                static_cast<unsigned long long>(svc_ctr.diskHits));
    if (client) {
        // The daemon's cumulative metrics: a second concurrent client
        // shows up here as mem-tier requests and in-flight dedup,
        // which is the observable proof of cross-client sharing.
        sps::obs::MetricsSnapshot after;
        try {
            after = client->metrics();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "metrics scrape failed: %s\n",
                         e.what());
            return 1;
        }
        writeMetrics(after);
        if (expect_warm) {
            int64_t sims = computeTier(after) - computeTier(server_before);
            if (sims > 0) {
                std::fprintf(
                    stderr,
                    "--expect-warm: daemon simulated %lld app(s) "
                    "for this run\n",
                    static_cast<long long>(sims));
                g_client = nullptr;
                g_service = nullptr;
                return 1;
            }
        }
        g_client = nullptr;
        delete client;
    } else if (registry) {
        writeMetrics(registry->snapshot());
    }
    if (!client && expect_warm &&
        (ctr.misses > 0 || svc_ctr.computed > 0)) {
        std::fprintf(stderr,
                     "--expect-warm: cache was cold (%llu schedule "
                     "compiles, %llu app sims)\n",
                     static_cast<unsigned long long>(ctr.misses),
                     static_cast<unsigned long long>(svc_ctr.computed));
        g_service = nullptr;
        return 1;
    }
    g_service = nullptr;
    return 0;
}
