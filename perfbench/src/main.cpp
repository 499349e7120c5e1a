/**
 * @file
 * The benchmark driver: `perfbench --workload NAME --seed N --seconds S
 * --trace 0|1 [--threads T]`. Runs one workload, prints what it
 * measured by name and unit, and ends with one JSON line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end set, with --trace 1 the per-layer set; a
 * per-layer metric the workload does not exercise reads 0.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

#include "workloads/suite.h"

namespace {

using perfbench::Options;
using perfbench::Report;

/** A printed metric: name and unit, in BENCHMARK.json order. */
using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"sweep_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"requests_per_s", "1/s"},
    {"stream_mwords_per_s", "Mwords/s"},
    {"peak_rss_mb", "MiB"},
    {"paper_err_pct", "%"},
};

MetricList
layerMetrics()
{
    MetricList list = {
        {"core.critical_point_s", "s"},
        {"core.pool_busy_frac", "ratio"},
        {"vlsi.sweep_s", "s"},
        {"sched.compiles", "count"},
        {"sched.compile_s", "s"},
        {"sched.compile_max_s", "s"},
        {"sched.lookups", "count"},
        {"sched.lookup_s", "s"},
        {"workloads.build_s", "s"},
        {"sim.controller_s", "s"},
        {"sim.stream_ops", "count"},
        {"sim.cycles", "cycles"},
        {"sim.ns_per_stream_op", "ns"},
        {"mem.replay_s", "s"},
        {"mem.dram_accesses", "count"},
        {"energy.account_s", "s"},
        {"svc.mem_hits", "count"},
        {"svc.disk_hits", "count"},
        {"svc.computed", "count"},
        {"svc.queue_wait_us", "us"},
        {"svc.server_us", "us"},
        {"svc.transport_us", "us"},
        {"store.get_us", "us"},
        {"store.put_us", "us"},
        {"store.decode_us", "us"},
        {"store.encode_us", "us"},
        {"store.entry_kb", "KiB"},
        {"attrib.coverage", "ratio"},
        {"trace.overhead_pct", "%"},
    };
    for (const auto &k : sps::workloads::kernelSuite()) {
        for (int c : {8, 3})
            list.push_back({"interp." + k.name + ".c" + std::to_string(c) +
                                ".mwords_per_s",
                            "Mwords/s"});
        list.push_back({"interp." + k.name + ".fused_fraction", "ratio"});
    }
    return list;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload cold_sweep|sim_sweep|"
                 "daemon_mix|interp_kernels --seed N --seconds S "
                 "--trace 0|1 [--threads T]\n");
}

/** Print `list` from `measured` (0 when absent) and the JSON line. */
void
printReport(const Report &rep, const std::map<std::string, double> &measured,
            const MetricList &list)
{
    std::string json = "{\"correct\": ";
    json += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < list.size(); ++i) {
        const auto &[name, unit] = list[i];
        auto it = measured.find(name);
        double v = it != measured.end() && std::isfinite(it->second)
                       ? it->second
                       : 0.0;
        std::printf("  %-34s %.6g %s\n", name.c_str(), v, unit.c_str());
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + unit + "\"}";
    }
    json += "}}";
    std::printf("error_rate: %llu failed / %llu attempted\n",
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            opt.seconds = std::atof(val);
            have_seconds = opt.seconds > 0;
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
            have_trace = opt.trace || std::strcmp(val, "0") == 0;
        } else if (key == "--threads") {
            opt.threads = std::atoi(val);
        } else {
            usage();
            return 2;
        }
    }
    if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace ||
        opt.threads < 1) {
        usage();
        return 2;
    }
    // At most one engine thread per hardware thread.
    opt.threads = std::min<int>(
        opt.threads,
        std::max(1u, std::thread::hardware_concurrency()));

    using Runner = Report (*)(const Options &);
    const std::map<std::string, Runner> runners = {
        {"cold_sweep", perfbench::runColdSweep},
        {"sim_sweep", perfbench::runSimSweep},
        {"daemon_mix", perfbench::runDaemonMix},
        {"interp_kernels", perfbench::runInterpKernels},
    };
    auto it = runners.find(opt.workload);
    if (it == runners.end()) {
        usage();
        return 2;
    }
    std::printf("workload %s, seed %llu, %.0f s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    try {
        Report rep = it->second(opt);
        if (opt.trace)
            printReport(rep, rep.layers, layerMetrics());
        else
            printReport(rep, rep.endToEnd, kEndToEnd);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::fflush(stdout);
    return 0;
}
