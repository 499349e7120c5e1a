#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/prng.h"
#include "common/stats.h"
#include "store/codec.h"

namespace perfbench {

void
Report::check(bool ok, const std::string &what, uint64_t ops)
{
    attempted += ops;
    if (!ok) {
        failed += ops;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
}

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.n = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    // The epsilon keeps q*n that rounds just above an integer (0.99 *
    // 1000) on that integer's rank.
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    // Ten samples beyond rank r means r <= n - 10.
    const size_t max_rank = n > 10 ? n - 10 : 1;
    rank = std::min(rank, max_rank);
    p.value = samples[rank - 1];
    p.q = static_cast<double>(rank) / static_cast<double>(n);
    return p;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    f.mix(bits);
}

void
Digest::add(const std::vector<double> &series)
{
    f.mix(static_cast<uint64_t>(series.size()));
    for (double v : series)
        add(v);
}

void
Digest::add(const sps::sim::SimResult &r)
{
    f.mix(resultHash(r));
}

uint64_t
resultHash(const sps::sim::SimResult &r, size_t *bytes)
{
    sps::store::ByteWriter w;
    sps::store::encodeSimResult(r, &w);
    if (bytes)
        *bytes = w.bytes().size();
    return sps::store::fnv1aBytes(w.bytes().data(), w.bytes().size());
}

double
streamWords(const sps::sim::SimResult &r)
{
    return static_cast<double>(r.counters.srfReadWords +
                               r.counters.srfWriteWords);
}

const std::vector<int> &
gridClusters()
{
    static const std::vector<int> cs{8, 16, 32, 64, 128};
    return cs;
}

const std::vector<int> &
gridAlus()
{
    static const std::vector<int> ns{2, 5, 10, 14};
    return ns;
}

sps::svc::AppSweepPlan
gridPlan()
{
    return sps::svc::appSweepPlan(gridClusters(), gridAlus());
}

std::vector<sps::core::AppPoint>
gridPoints(const sps::svc::AppSweepPlan &plan,
           std::vector<sps::sim::SimResult> grid)
{
    std::vector<sps::sim::SimResult> base;
    for (const auto &b : plan.baselines)
        for (size_t i = 0; i < plan.grid.size(); ++i)
            if (plan.grid[i].app == b.app &&
                plan.grid[i].size.clusters == b.size.clusters &&
                plan.grid[i].size.alusPerCluster ==
                    b.size.alusPerCluster)
                base.push_back(grid[i]);
    return sps::svc::assembleAppPoints(plan, base, std::move(grid));
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    if (seed == 0)
        return order;
    sps::Prng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1],
                  order[rng.below(static_cast<uint32_t>(i))]);
    return order;
}

void
Anchors::setKernel(const sps::core::Headline &h)
{
    kernel640 = h.kernelSpeedup640;
    kernel1280 = h.kernelSpeedup1280;
    hasKernel = true;
}

void
Anchors::setApp(const std::vector<sps::core::AppPoint> &pts)
{
    std::vector<double> s640, s1280;
    for (const auto &p : pts) {
        if (p.size.clusters != 128)
            continue;
        if (p.size.alusPerCluster == 5)
            s640.push_back(p.speedup);
        else if (p.size.alusPerCluster == 10)
            s1280.push_back(p.speedup);
    }
    app640 = sps::harmonicMean(s640);
    app1280 = sps::harmonicMean(s1280);
    hasApp = true;
}

double
Anchors::errorPct() const
{
    struct Row
    {
        const char *name;
        double paper;
        double measured;
        bool has;
    };
    const Row rows[] = {
        {"640-ALU kernel speedup", 15.3, kernel640, hasKernel},
        {"640-ALU app speedup", 8.0, app640, hasApp},
        {"1280-ALU kernel speedup", 27.9, kernel1280, hasKernel},
        {"1280-ALU app speedup", 10.4, app1280, hasApp},
    };
    std::printf("paper anchors:\n  %-26s %8s %10s %8s\n", "anchor",
                "paper", "measured", "error");
    double sum = 0.0;
    int count = 0;
    for (const Row &r : rows) {
        if (!r.has) {
            std::printf("  %-26s %7.1fx %10s %8s\n", r.name, r.paper,
                        "-", "-");
            continue;
        }
        double err = std::fabs(r.measured / r.paper - 1.0) * 100.0;
        std::printf("  %-26s %7.1fx %9.3fx %7.2f%%\n", r.name, r.paper,
                    r.measured, err);
        sum += err;
        ++count;
    }
    return count ? sum / count : 0.0;
}

} // namespace perfbench
