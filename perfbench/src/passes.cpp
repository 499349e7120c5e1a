#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

const Pass &
PassLog::fastest() const
{
    return *std::min_element(passes.begin(), passes.end(),
                             [](const Pass &a, const Pass &b) {
                                 return a.seconds < b.seconds;
                             });
}

std::vector<double>
PassLog::latencySamples() const
{
    std::vector<double> out = passes.front().latencyMs;
    for (const Pass &p : passes)
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = std::min(out[i], p.latencyMs.at(i));
    return out;
}

double
timedSetup(const std::function<void()> &setup, int reps)
{
    std::vector<double> secs;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        setup();
        secs.push_back(secondsSince(t0));
    }
    return median(secs);
}

double
passLoop(const Options &opt, const PassFn &untraced, const PassFn &traced)
{
    auto t0 = Clock::now();
    int pass = 0;
    double rss_mb = 0.0;
    do {
        const uint64_t order_seed =
            pass == 0 ? 0 : opt.seed * 1000003 + pass;
        if (opt.trace && pass % 2 == 1)
            traced(order_seed);
        else
            untraced(order_seed);
        if (pass == 0)
            rss_mb = peakRssMb();
        ++pass;
    } while (secondsSince(t0) < opt.seconds || (opt.trace && pass < 2));
    return rss_mb;
}

void
reportEndToEnd(Report &rep, double setup_s, double rss_mb,
               const PassLog &log, double paper_err_pct,
               const char *op_name)
{
    const std::vector<double> lat = log.latencySamples();
    const Pass &best = log.fastest();
    Percentile p50 = percentile(lat, 0.50);
    Percentile p99 = percentile(lat, 0.99);
    const double slowest =
        std::max_element(log.passes.begin(), log.passes.end(),
                         [](const Pass &a, const Pass &b) {
                             return a.seconds < b.seconds;
                         })
            ->seconds;
    std::printf("passes: %zu (%.4f .. %.4f s); %s latency samples: %zu; "
                "p50 %.4f ms, tail p%.2f %.4f ms (asked p99; the tail "
                "keeps ten samples beyond it)\n",
                log.passes.size(), best.seconds, slowest, op_name, p99.n,
                p50.value, 100.0 * p99.q, p99.value);
    rep.endToEnd = {
        {"setup_s", setup_s},
        {"sweep_s", best.seconds},
        {"latency_p50_ms", p50.value},
        {"latency_p99_ms", p99.value},
        {"requests_per_s", best.ops / best.seconds},
        {"stream_mwords_per_s", best.words / best.seconds / 1e6},
        {"peak_rss_mb", rss_mb},
        {"paper_err_pct", paper_err_pct},
    };
}

void
reportLayers(Report &rep, const PassLog &untraced, const PassLog &traced)
{
    for (const auto &[name, values] : traced.layers)
        rep.layers[name] = median(values);
    double u = untraced.fastest().seconds;
    double t = traced.fastest().seconds;
    rep.layers["trace.overhead_pct"] = (t - u) / u * 100.0;
}

} // namespace perfbench
