/**
 * @file
 * Command-line machine explorer: `explore_cli <C> <N> [app]`.
 * Prints the design report for a (C, N) stream processor -- VLSI
 * costs and each suite kernel's compiled II, unroll factor, stages and
 * ALU ops per cycle -- and, when an application name is given,
 * simulates it and renders the stream-operation timeline. A size
 * the app cannot run on exits 2 with the reason, like a bad argument.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/design.h"
#include "sim/timeline.h"
#include "workloads/suite.h"

int
main(int argc, char **argv)
{
    using namespace sps;
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: %s <clusters> <alus-per-cluster> "
                     "[RENDER|DEPTH|CONV|QRD|FFT1K|FFT4K]\n",
                     argv[0]);
        return 2;
    }
    int c = std::atoi(argv[1]);
    int n = std::atoi(argv[2]);
    if (c < 1 || n < 1) {
        std::fprintf(stderr, "bad machine size %s x %s\n", argv[1],
                     argv[2]);
        return 2;
    }

    core::StreamProcessorDesign d({c, n});
    auto area = d.area();
    std::printf("Stream processor C=%d N=%d (%d ALUs) at %s\n", c, n,
                c * n, d.tech().name.c_str());
    std::printf("  area   %.1f mm^2 (SRF %.0f%%, clusters %.0f%%, "
                "uc %.0f%%, switch %.0f%%)\n",
                d.areaMm2(), 100 * area.srf / area.total(),
                100 * area.clusters / area.total(),
                100 * area.microcontroller / area.total(),
                100 * area.interclusterSwitch / area.total());
    std::printf("  power  %.2f W at full issue; peak %.0f GOPS\n",
                d.powerWatts(), d.peakGops());
    std::printf("  delay  intra %.1f FO4 (+%d stages), inter %.1f FO4 "
                "(%d cycles)\n\n",
                d.delay().intraFo4,
                d.costModel().intraPipeStages(n), d.delay().interFo4,
                d.costModel().interCommCycles({c, n}));

    std::printf("Compiled kernel suite:\n");
    for (const auto &entry : workloads::kernelSuite()) {
        if (!d.machine().canExecute(*entry.kernel)) {
            std::printf("  %-9s (not executable at N=%d)\n",
                        entry.name.c_str(), n);
            continue;
        }
        sched::CompiledKernel ck = d.compile(*entry.kernel);
        std::printf("  %-9s II=%-3d unroll=%d stages=%-2d "
                    "%5.2f ops/cycle/cluster\n",
                    entry.name.c_str(), ck.ii, ck.unroll, ck.stages,
                    ck.aluOpsPerCycle());
    }

    if (argc >= 4) {
        const char *app_name = argv[3];
        for (const auto &app : workloads::appSuite()) {
            if (std::strcmp(app.name.c_str(), app_name) != 0)
                continue;
            sim::StreamProcessor proc = d.makeProcessor();
            sim::SimResult r;
            try {
                r = proc.run(app.build(d.size(), proc.srf()));
            } catch (const std::invalid_argument &e) {
                // The machine cannot run the app (e.g. N=1 has no
                // multiplier for its kernels): a bad input, not a crash.
                std::fprintf(stderr, "explore_cli: %s\n", e.what());
                return 2;
            }
            std::printf("\n%s: %lld cycles, %.1f GOPS, memory busy "
                        "%.0f%%, SRF high water %lld/%lld words\n\n",
                        app.name.c_str(),
                        static_cast<long long>(r.cycles),
                        r.gops(d.clockGHz()),
                        100 * r.memBusyFraction(),
                        static_cast<long long>(r.srfHighWater),
                        static_cast<long long>(
                            proc.srf().capacityWords));
            std::printf("%s", sim::renderTimeline(r).c_str());
            return 0;
        }
        std::fprintf(stderr, "unknown app %s\n", app_name);
        return 2;
    }
    return 0;
}
