/**
 * @file
 * daemon_mix: an in-process svc::EvalServer on a temporary Unix socket
 * over a store::ResultStore, driven by a closed loop of two
 * svc::EvalClient connections (each sends its next request only after
 * the previous reply), with the server's engine pool at two threads.
 *
 * Set-up computes the Figure-15 grid into a base store (results and
 * every schedule). Each pass copies that store, starts a fresh
 * EvalService and EvalServer over the copy, and replays one fixed,
 * seeded request stream, so the tier outcomes repeat exactly from pass
 * to pass: every grid point is requested at least once (the first
 * touch decodes from disk, repeats hit memory), and about 5% of the
 * requests carry a never-seen override SimConfig on a cheap app, which
 * simulates and then writes to the store. Every reply is checked
 * against the in-process result after the pass.
 */
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "workloads.h"

#include "common/prng.h"
#include "core/eval_engine.h"
#include "obs/metrics.h"
#include "sched/schedule_cache.h"
#include "store/codec.h"
#include "store/result_store.h"
#include "svc/eval_client.h"
#include "svc/eval_server.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using namespace sps;
namespace fs = std::filesystem;

/** Requests per grid point per pass, and the override requests:
 *  about 5% of the 1512 requests of a pass. */
constexpr size_t kRepeats = 12;
constexpr size_t kOverrides = 72;
constexpr int kClients = 2;
constexpr int kServerThreads = 2;
/** The app override requests run on: the cheapest of the suite. */
const char *const kOverrideApp = "FFT1K";

/** Removes its directory tree (socket, stores) when the run ends,
 *  and the parent too once no other run's directory is left in it. */
struct TempDir
{
    fs::path path;
    explicit TempDir(fs::path p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
        fs::remove(path.parent_path(), ec); // fails while non-empty
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

struct Request
{
    svc::EvalPoint pt;
    uint64_t expected = 0; ///< resultHash of the in-process result
    int grid = -1;         ///< index into plan.grid, -1 for overrides
};

/**
 * Override configurations for `count` distinct never-seen points. Only
 * valid, finite, positive values are drawn, and only knobs that leave
 * the machine model (and so every schedule) unchanged. C=0 or N=0
 * would still abort the daemon today; validating request inputs at
 * the service boundary is separate work, so this generator stays
 * inside the valid range.
 */
std::vector<svc::EvalPoint>
overridePoints(size_t count, uint64_t seed)
{
    Prng rng(seed ^ 0x0DDBA11ull);
    std::set<std::tuple<int, int, int, int, int>> seen;
    std::vector<svc::EvalPoint> pts;
    const int cs[] = {8, 16, 32};
    while (pts.size() < count) {
        sim::SimConfig cfg;
        cfg.size = {cs[rng.below(3)], 5};
        cfg.memConfig.latencyCycles = 20 + static_cast<int>(rng.below(180));
        cfg.hostIssueCycles = 2 + static_cast<int>(rng.below(30));
        cfg.scoreboardDepth = 4 + static_cast<int>(rng.below(28));
        cfg.ucConfig.pipeFillCycles = 1 + static_cast<int>(rng.below(16));
        if (!seen.insert({cfg.size.clusters, cfg.memConfig.latencyCycles,
                          cfg.hostIssueCycles, cfg.scoreboardDepth,
                          cfg.ucConfig.pipeFillCycles})
                 .second)
            continue;
        pts.push_back(svc::EvalPoint{kOverrideApp, cfg.size, cfg});
    }
    return pts;
}

double
meanUs(const obs::MetricsSnapshot &snap, const char *name,
       const char *labels = "")
{
    const obs::MetricSample *m = snap.find(name, labels);
    return m && m->count ? static_cast<double>(m->sum) / m->count : 0.0;
}

} // namespace

Report
runDaemonMix(const Options &opt)
{
    Report rep;
    auto &cache = sched::ScheduleCache::global();
    const svc::AppSweepPlan plan = gridPlan();
    core::EvalEngine setupEngine(opt.threads);
    core::EvalEngine serverEngine(kServerThreads);
    TempDir tmp(fs::path(".bench_tmp") /
                ("daemon-" + std::to_string(::getpid())));
    const fs::path base = tmp.path / "base";
    const fs::path live = tmp.path / "live";
    const std::string sock = (tmp.path / "d.sock").string();
    Anchors anchors;
    std::vector<uint64_t> gridHash(plan.grid.size());
    const std::vector<svc::EvalPoint> overrides =
        overridePoints(kOverrides, opt.seed);
    std::vector<uint64_t> overrideHash(overrides.size());

    // Set-up: the grid and every schedule into a fresh base store,
    // plus the in-process results every reply is checked against.
    double setup_s = timedSetup([&] {
        fs::remove_all(base);
        cache.clear();
        store::ResultStore st(base.string());
        cache.attachStore(&st);
        std::vector<core::AppPoint> pts;
        {
            svc::EvalService service(&setupEngine, &st);
            pts = service.appPerformance(gridClusters(), gridAlus());
        }
        cache.attachStore(nullptr);
        for (size_t i = 0; i < pts.size(); ++i)
            gridHash[i] = resultHash(pts[i].result);
        anchors.setKernel(core::headlineNumbers(false, &setupEngine));
        setupEngine.forEach(overrides.size(), [&](size_t i) {
            sim::StreamProcessor proc(svc::effectiveSimConfig(overrides[i]));
            for (const auto &app : workloads::appSuite())
                if (app.name == overrides[i].app)
                    overrideHash[i] = resultHash(
                        proc.run(app.build(overrides[i].size, proc.srf())));
        });
    });

    // The request stream: every grid point kRepeats times plus the
    // overrides, in a seeded order. The seed changes the order and the
    // override values, never the mix.
    std::vector<Request> reqs;
    for (size_t r = 0; r < kRepeats; ++r)
        for (size_t i = 0; i < plan.grid.size(); ++i)
            reqs.push_back(
                {plan.grid[i], gridHash[i], static_cast<int>(i)});
    for (size_t i = 0; i < overrides.size(); ++i)
        reqs.push_back({overrides[i], overrideHash[i], -1});
    {
        std::vector<size_t> order = permutation(reqs.size(), opt.seed);
        std::vector<Request> shuffled;
        for (size_t i : order)
            shuffled.push_back(reqs[i]);
        reqs.swap(shuffled);
    }

    PassLog plain, traced;
    auto pass = [&](PassLog &log, bool trace) {
        fs::remove_all(live);
        fs::copy(base, live, fs::copy_options::recursive);
        obs::MetricsRegistry registry;
        store::ResultStore st(live.string());
        if (trace)
            st.attachMetrics(&registry);
        svc::EvalService service(&serverEngine, &st);
        svc::ServerTelemetry telemetry;
        telemetry.registry = trace ? &registry : nullptr;
        svc::EvalServer server(&service, sock, telemetry);

        std::vector<sim::SimResult> replies(reqs.size());
        std::vector<double> latMs(reqs.size(), 0.0);
        std::vector<char> ok(reqs.size(), 0);
        auto t0 = Clock::now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                try {
                    svc::EvalClient client(sock);
                    for (size_t j = c; j < reqs.size(); j += kClients) {
                        auto tr = Clock::now();
                        replies[j] = client.eval(reqs[j].pt);
                        latMs[j] = secondsSince(tr) * 1e3;
                        ok[j] = 1;
                    }
                } catch (const std::exception &e) {
                    std::printf("client %d: %s\n", c, e.what());
                }
            });
        for (auto &t : clients)
            t.join();
        double secs = secondsSince(t0);
        obs::MetricsSnapshot snap = server.metricsSnapshot();
        svc::ServiceCounters sc = service.counters();
        server.stop();

        Pass p{secs, latMs, static_cast<double>(reqs.size())};
        std::vector<sim::SimResult> grid(plan.grid.size());
        double encode_s = 0, decode_s = 0, bytes = 0;
        for (size_t j = 0; j < reqs.size(); ++j) {
            p.words += streamWords(replies[j]);
            auto te = Clock::now();
            store::ByteWriter w;
            store::encodeSimResult(replies[j], &w);
            encode_s += secondsSince(te);
            bytes += static_cast<double>(w.bytes().size());
            uint64_t h = store::fnv1aBytes(w.bytes().data(),
                                           w.bytes().size());
            rep.check(ok[j] && h == reqs[j].expected,
                      "daemon reply for " + reqs[j].pt.app +
                          " differs from the in-process result");
            if (trace) {
                sim::SimResult back;
                auto td = Clock::now();
                store::decodeSimResult(w.bytes(), &back);
                decode_s += secondsSince(td);
            }
            if (reqs[j].grid >= 0 && !anchors.hasApp)
                grid[static_cast<size_t>(reqs[j].grid)] = replies[j];
        }
        log.passes.push_back(std::move(p));
        if (!anchors.hasApp)
            anchors.setApp(gridPoints(plan, std::move(grid)));
        if (!trace)
            return;
        double n = static_cast<double>(reqs.size());
        double client_us = 0;
        for (double ms : latMs)
            client_us += ms * 1e3 / n;
        double server_us = meanUs(snap, "sps_server_request_duration_us");
        log.layer("svc.mem_hits",
                  static_cast<double>(sc.memHits + sc.inflightDedup));
        log.layer("svc.disk_hits", static_cast<double>(sc.diskHits));
        log.layer("svc.computed", static_cast<double>(sc.computed));
        log.layer("svc.queue_wait_us", meanUs(snap, "sps_queue_wait_us"));
        log.layer("svc.server_us", server_us);
        log.layer("svc.transport_us", client_us - server_us);
        log.layer("store.get_us", meanUs(snap, "sps_store_get_duration_us",
                                         "result=\"hit\""));
        log.layer("store.put_us",
                  meanUs(snap, "sps_store_put_duration_us"));
        log.layer("store.encode_us", encode_s * 1e6 / n);
        log.layer("store.decode_us", decode_s * 1e6 / n);
        log.layer("store.entry_kb", bytes / n / 1024.0);
    };

    double rss_mb = passLoop(
        opt, [&](uint64_t) { pass(plain, false); },
        [&](uint64_t) { pass(traced, true); });

    std::printf("daemon_mix: %d clients (closed loop), %d server "
                "threads, %zu requests per pass (%zu overrides on %s)\n",
                kClients, serverEngine.threadCount(), reqs.size(),
                overrides.size(), kOverrideApp);
    double err = anchors.errorPct();
    if (opt.trace)
        reportLayers(rep, plain, traced);
    else
        reportEndToEnd(rep, setup_s, rss_mb, plain, err, "request");
    return rep;
}

} // namespace perfbench
