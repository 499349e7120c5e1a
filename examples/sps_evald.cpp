/**
 * @file
 * sps_evald: the resident evaluation daemon. One process owns the
 * warm tiers -- the in-memory request map, the shared schedule cache,
 * and (with --cache-dir) the disk-backed result store -- and serves
 * any number of concurrent sweep clients over a Unix-domain socket
 * (svc::EvalServer). Identical points requested by different clients
 * are simulated once; results stream back bit-identical to an
 * in-process run, so client-side CSVs match byte for byte.
 *
 *   sps_evald --sock /tmp/sps-eval.sock --cache-dir cache \
 *             [--max-cache-bytes N] [--threads N] \
 *             [--reap-tmp-seconds S] \
 *             [--metrics-out FILE] [--metrics-interval SEC] \
 *             [--slow-request-ms MS] [--span-trace FILE] [--quiet]
 *
 * --max-cache-bytes bounds the cache directory: every write that
 * crosses the budget evicts least-recently-used entries. At startup
 * the daemon also reaps `.tmp.*` debris older than --reap-tmp-seconds
 * (default 900) left by writers that died mid-put.
 *
 * Telemetry is always on (an obs::MetricsRegistry wired through the
 * server, service, store, and schedule cache -- the hot path is a
 * handful of relaxed atomics), so any client can scrape a live
 * MetricsRequest snapshot at any time. --metrics-out dumps the
 * snapshot to FILE in the Prometheus text format (plus FILE.json;
 * both written temp-then-rename, so a concurrent reader never sees a
 * partial dump) at shutdown and, with --metrics-interval, every SEC
 * seconds while serving. --slow-request-ms logs one structured warn()
 * line per request slower than MS milliseconds end to end.
 * --span-trace exports the most recent request spans as a Chrome
 * trace_event file on shutdown (open in Perfetto, one track per
 * pipeline stage).
 *
 * The daemon runs until SIGINT/SIGTERM, then logs every counter of
 * its metrics snapshot and exits cleanly.
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/log.h"
#include "core/eval_engine.h"
#include "obs/metrics.h"
#include "svc/eval_server.h"
#include "trace/chrome_trace.h"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void
handleStop(int)
{
    g_stop.store(true);
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --sock PATH [--cache-dir DIR] "
        "[--max-cache-bytes N] [--threads N] [--reap-tmp-seconds S] "
        "[--metrics-out FILE] [--metrics-interval SEC] "
        "[--slow-request-ms MS] [--span-trace FILE] [--quiet]\n",
        argv0);
    return 2;
}

/** Write `text` to `path` via temp-file-plus-rename, so a reader
 *  polling the path never observes a partial dump. */
bool
writeFileAtomic(const std::string &path, const std::string &text)
{
    std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out || !out.write(text.data(),
                               static_cast<std::streamsize>(
                                   text.size())))
            return false;
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return false;
    }
    return true;
}

/** One snapshot, two renditions: FILE (Prometheus text) and
 *  FILE.json, rendered from the same snapshot so they agree. */
void
dumpMetrics(const sps::obs::MetricsRegistry &registry,
            const std::string &path)
{
    sps::obs::MetricsSnapshot snap = registry.snapshot();
    if (!writeFileAtomic(path, sps::obs::renderPrometheus(snap)))
        sps::warn("sps_evald: cannot write metrics to %s",
                  path.c_str());
    if (!writeFileAtomic(path + ".json", sps::obs::renderJson(snap)))
        sps::warn("sps_evald: cannot write metrics to %s.json",
                  path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sock;
    std::string cache_dir;
    std::string metrics_out;
    std::string span_trace;
    unsigned long long max_cache_bytes = 0;
    unsigned long long metrics_interval = 0;
    unsigned long long slow_request_ms = 0;
    int threads = 0;
    unsigned long long reap_tmp_seconds = 900;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                sps::fatal("sps_evald: %s needs a value", flag);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--sock") == 0)
            sock = value("--sock");
        else if (std::strcmp(argv[i], "--cache-dir") == 0)
            cache_dir = value("--cache-dir");
        else if (std::strcmp(argv[i], "--max-cache-bytes") == 0)
            max_cache_bytes =
                std::strtoull(value("--max-cache-bytes"), nullptr, 10);
        else if (std::strcmp(argv[i], "--threads") == 0)
            threads = std::atoi(value("--threads"));
        else if (std::strcmp(argv[i], "--reap-tmp-seconds") == 0)
            reap_tmp_seconds = std::strtoull(
                value("--reap-tmp-seconds"), nullptr, 10);
        else if (std::strcmp(argv[i], "--metrics-out") == 0)
            metrics_out = value("--metrics-out");
        else if (std::strcmp(argv[i], "--metrics-interval") == 0)
            metrics_interval = std::strtoull(
                value("--metrics-interval"), nullptr, 10);
        else if (std::strcmp(argv[i], "--slow-request-ms") == 0)
            slow_request_ms = std::strtoull(
                value("--slow-request-ms"), nullptr, 10);
        else if (std::strcmp(argv[i], "--span-trace") == 0)
            span_trace = value("--span-trace");
        else if (std::strcmp(argv[i], "--quiet") == 0)
            sps::setLogLevel(sps::LogLevel::Quiet);
        else
            return usage(argv[0]);
    }
    if (sock.empty())
        return usage(argv[0]);

    sps::core::EvalEngine engine(threads);

    // Store/cache/service hot paths record into the registry's
    // histograms, and its snapshots read their counters in place;
    // like the store below it must outlive the global schedule cache,
    // so it is deliberately leaked.
    auto *registry = new sps::obs::MetricsRegistry();

    // The store must outlive the global schedule cache, whose
    // destruction order against locals is not ours to control, so it
    // is deliberately leaked (same pattern as bench_export_all).
    sps::store::ResultStore *store = nullptr;
    if (!cache_dir.empty()) {
        store = new sps::store::ResultStore(cache_dir,
                                            max_cache_bytes);
        uint64_t reaped = store->reapOrphanTemps(reap_tmp_seconds);
        if (reaped > 0)
            sps::inform(
                "sps_evald: reaped %llu orphaned temp file(s) from %s",
                static_cast<unsigned long long>(reaped),
                cache_dir.c_str());
        store->sweepToBudget();
        store->attachMetrics(registry);
        engine.cache().attachStore(store);
    }
    engine.cache().attachMetrics(registry);

    sps::svc::EvalService service(&engine, store);
    try {
        sps::svc::ServerTelemetry telemetry;
        telemetry.registry = registry;
        telemetry.slowRequestUs = slow_request_ms * 1000;
        sps::svc::EvalServer server(&service, sock, telemetry);
        std::signal(SIGINT, handleStop);
        std::signal(SIGTERM, handleStop);
        sps::inform("sps_evald: listening on %s (%d threads%s%s)",
                    sock.c_str(), engine.threadCount(),
                    cache_dir.empty() ? "" : ", cache ",
                    cache_dir.c_str());
        // Readiness watchers tail the log; don't sit in stdio buffers.
        std::fflush(stdout);

        auto last_dump = std::chrono::steady_clock::now();
        while (!g_stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            if (metrics_interval > 0 && !metrics_out.empty()) {
                auto now = std::chrono::steady_clock::now();
                if (now - last_dump >=
                    std::chrono::seconds(metrics_interval)) {
                    dumpMetrics(*registry, metrics_out);
                    last_dump = now;
                }
            }
        }
        server.stop();
        if (!metrics_out.empty())
            dumpMetrics(*registry, metrics_out);
        if (!span_trace.empty()) {
            sps::trace::Tracer tracer;
            server.spanRecorder().toTracer(&tracer);
            if (!sps::trace::writeChromeTrace(tracer, span_trace))
                sps::warn("sps_evald: cannot write span trace to %s",
                          span_trace.c_str());
        }
        auto sc = server.counters();
        sps::inform("sps_evald: served %llu request(s) over %llu "
                    "connection(s), %llu protocol error(s)",
                    static_cast<unsigned long long>(sc.requests),
                    static_cast<unsigned long long>(sc.connections),
                    static_cast<unsigned long long>(
                        sc.protocolErrors));
        for (const auto &line :
             sps::obs::counterLines(registry->snapshot()))
            sps::inform("  %s", line.c_str());
    } catch (const std::exception &e) {
        sps::warn("sps_evald: %s", e.what());
        return 1;
    }
    return 0;
}
