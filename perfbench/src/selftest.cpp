/**
 * @file
 * Self-tests of the benchmark itself (`python3 perfbench/run.py
 * --selftest`): the percentile rule, seed independence of the output
 * digest, and clean-up of the daemon workload's socket and store.
 * Exits non-zero on the first failed expectation.
 */
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i > 0; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

void
percentileRule()
{
    using perfbench::percentile;
    auto p = percentile(ramp(1000), 0.99);
    expect(p.value == 990.0 && p.q == 0.99 && p.n == 1000,
           "p99 of 1000 samples keeps ten beyond it");
    p = percentile(ramp(500), 0.99);
    expect(p.value == 490.0 && p.q == 0.98,
           "p99 of 500 samples falls back to p98 (ten beyond)");
    p = percentile(ramp(100), 0.5);
    expect(p.value == 50.0 && p.q == 0.5, "p50 of 100 samples");
    p = percentile(ramp(5), 0.99);
    expect(p.value == 1.0, "too few samples: the minimum");
    expect(perfbench::median({3, 1, 2, 4}) == 2.5, "median of four");
}

void
digestIsSeedIndependent()
{
    for (uint64_t seed : {11u, 12u}) {
        perfbench::Options opt;
        opt.workload = "sim_sweep";
        opt.seed = seed;
        opt.seconds = 0.01;
        opt.trace = true; // two passes: canonical order, then seeded
        perfbench::Report rep = perfbench::runSimSweep(opt);
        expect(rep.attempted > 0 && rep.failed == 0,
               "sim_sweep seed " + std::to_string(seed) +
                   " reproduces the committed digest");
    }
}

void
daemonCleansUp()
{
    perfbench::Options opt;
    opt.workload = "daemon_mix";
    opt.seconds = 0.01;
    perfbench::Report rep = perfbench::runDaemonMix(opt);
    expect(rep.attempted > 0 && rep.failed == 0,
           "daemon_mix replies match in-process results");
    std::filesystem::path dir =
        std::filesystem::path(".bench_tmp") /
        ("daemon-" + std::to_string(::getpid()));
    expect(!std::filesystem::exists(dir),
           "daemon_mix removed its socket and store");
}

} // namespace

int
main()
{
    percentileRule();
    digestIsSeedIndependent();
    daemonCleansUp();
    std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest ok");
    return failures ? 1 : 0;
}
