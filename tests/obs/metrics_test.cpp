// Tests for the service-telemetry metrics registry: handle
// idempotence, the log2 bucket math, exact count/sum accounting,
// quantile extraction, exposed counters, both render formats, and the
// consistency contract of a snapshot taken under concurrent recording
// (run under TSan in CI).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sps::obs {
namespace {

TEST(MetricsRegistryTest, CounterAndGaugeBasics)
{
    MetricsRegistry reg;
    Counter c;
    reg.expose("sps_requests_total", "", "requests", &c);
    Gauge *g = reg.gauge("sps_queue_depth", "", "depth");
    c.inc();
    c.inc(4);
    g->set(7);
    g->add(-2);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g->value(), 5);

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_requests_total"), 5);
    EXPECT_EQ(snap.value("sps_queue_depth"), 5);
    EXPECT_EQ(snap.value("sps_no_such_metric"), 0);
    EXPECT_EQ(snap.find("sps_no_such_metric"), nullptr);
    ASSERT_NE(snap.find("sps_requests_total"), nullptr);
    EXPECT_EQ(snap.find("sps_requests_total")->kind,
              MetricKind::Counter);
    EXPECT_EQ(snap.find("sps_requests_total")->help, "requests");
}

TEST(MetricsRegistryTest, HandlesAreIdempotentPerNameAndLabels)
{
    MetricsRegistry reg;
    Counter mem, disk;
    reg.expose("sps_hits", "tier=\"mem\"", "", &mem);
    reg.expose("sps_hits", "tier=\"mem\"", "", &mem); // a no-op
    reg.expose("sps_hits", "tier=\"disk\"", "", &disk);
    mem.inc(3);
    disk.inc(1);
    EXPECT_EQ(reg.size(), 2u);

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_hits", "tier=\"mem\""), 3);
    EXPECT_EQ(snap.value("sps_hits", "tier=\"disk\""), 1);

    Histogram *h1 = reg.histogram("sps_lat_us");
    Histogram *h2 = reg.histogram("sps_lat_us");
    EXPECT_EQ(h1, h2);
}

TEST(HistogramTest, BucketMathCoversTheWholeRange)
{
    // Bucket 0 holds exactly {0}; bucket i holds the next power-of-2
    // sized range, inclusive of its advertised upper bound.
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1), 1);
    EXPECT_EQ(Histogram::bucketIndex(2), 1);
    EXPECT_EQ(Histogram::bucketIndex(3), 2);
    EXPECT_EQ(Histogram::upperBound(0), 0u);
    EXPECT_EQ(Histogram::upperBound(1), 2u);
    EXPECT_EQ(Histogram::upperBound(9), 1022u);
    EXPECT_EQ(Histogram::upperBound(Histogram::kBuckets - 1),
              UINT64_MAX);

    // The Prometheus `le` contract: an observation equal to a
    // bucket's advertised boundary belongs to that bucket, and the
    // next value up belongs to the next one.
    for (int i = 0; i + 1 < Histogram::kBuckets; ++i) {
        uint64_t ub = Histogram::upperBound(i);
        EXPECT_EQ(Histogram::bucketIndex(ub), i) << "upperBound " << i;
        EXPECT_EQ(Histogram::bucketIndex(ub + 1), i + 1)
            << "just past upperBound " << i;
    }
    // The last bucket is the catch-all for anything the finite
    // boundaries cannot hold, including the clzll(0) edge case.
    EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX - 1),
              Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX),
              Histogram::kBuckets - 1);
}

TEST(HistogramTest, ObserveKeepsExactCountAndSum)
{
    Histogram h;
    uint64_t expect_sum = 0;
    for (uint64_t v : {0ull, 1ull, 1ull, 3ull, 100ull, 1000ull,
                       1000000ull}) {
        h.observe(v);
        expect_sum += v;
    }
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), expect_sum);
}

TEST(HistogramTest, QuantilesWalkTheBucketRanks)
{
    MetricsRegistry reg;
    Histogram *h = reg.histogram("sps_lat_us");
    // 90 observations in the [1, 2] bucket, 10 in the [511, 1022]
    // bucket: p50 must report the low bucket's ceiling, p95/p99 the
    // high one's.
    for (int i = 0; i < 90; ++i)
        h->observe(2);
    for (int i = 0; i < 10; ++i)
        h->observe(1000);

    MetricsSnapshot snap = reg.snapshot();
    const MetricSample *m = snap.find("sps_lat_us");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count, 100u);
    EXPECT_EQ(m->sum, 90u * 2 + 10u * 1000);
    EXPECT_EQ(m->quantile(0.50), 2u);
    EXPECT_EQ(m->quantile(0.90), 2u);
    EXPECT_EQ(m->quantile(0.95), 1022u);
    EXPECT_EQ(m->quantile(0.99), 1022u);
    EXPECT_EQ(m->quantile(1.0), 1022u);
    // Out-of-range q clamps instead of misbehaving.
    EXPECT_EQ(m->quantile(-1.0), 2u);
    EXPECT_EQ(m->quantile(2.0), 1022u);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero)
{
    MetricsRegistry reg;
    reg.histogram("sps_lat_us");
    MetricsSnapshot snap = reg.snapshot();
    const MetricSample *m = snap.find("sps_lat_us");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count, 0u);
    EXPECT_EQ(m->quantile(0.5), 0u);
    EXPECT_EQ(m->quantile(0.99), 0u);
}

TEST(MetricsRegistryTest, ExposedCounterIsReadInPlace)
{
    // A component owns its counter and keeps counting into it; the
    // registry holds no copy, so every snapshot reads the owner's
    // current value -- including a reset().
    MetricsRegistry reg;
    Counter owned;
    owned.inc(11);
    reg.expose("sps_external_things", "", "externally counted", &owned);
    reg.expose("sps_external_things", "", "externally counted", &owned);
    EXPECT_EQ(reg.size(), 1u) << "re-exposing the same counter is a no-op";

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_external_things"), 11);
    ASSERT_NE(snap.find("sps_external_things"), nullptr);
    EXPECT_EQ(snap.find("sps_external_things")->kind,
              MetricKind::Counter);
    EXPECT_NE(renderPrometheus(snap).find(
                  "# TYPE sps_external_things counter\n"),
              std::string::npos);

    owned.inc(31);
    EXPECT_EQ(reg.snapshot().value("sps_external_things"), 42);
    owned.reset();
    EXPECT_EQ(reg.snapshot().value("sps_external_things"), 0);
    EXPECT_EQ(counterLines(reg.snapshot()),
              std::vector<std::string>{"sps_external_things 0"});
}

TEST(MetricsRenderTest, PrometheusEmitsHelpAndTypeOncePerFamily)
{
    MetricsRegistry reg;
    Counter mem, disk;
    reg.expose("sps_hits", "tier=\"mem\"", "tier hits", &mem);
    reg.expose("sps_hits", "tier=\"disk\"", "tier hits", &disk);
    mem.inc(3);
    disk.inc(1);
    reg.gauge("sps_depth", "", "queue depth")->set(-2);
    std::string text = renderPrometheus(reg.snapshot());

    auto occurrences = [&](const std::string &needle) {
        size_t n = 0;
        for (size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1))
            ++n;
        return n;
    };
    // One HELP/TYPE pair for the two-label family, not one per label.
    EXPECT_EQ(occurrences("# HELP sps_hits tier hits\n"), 1u);
    EXPECT_EQ(occurrences("# TYPE sps_hits counter\n"), 1u);
    EXPECT_NE(text.find("sps_hits{tier=\"mem\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_hits{tier=\"disk\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sps_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_depth -2\n"), std::string::npos);
}

TEST(MetricsRenderTest, PrometheusHistogramBucketsAreCumulative)
{
    MetricsRegistry reg;
    Histogram *h = reg.histogram("sps_lat_us", "", "latency");
    for (uint64_t v : {1ull, 1ull, 3ull, 1000ull})
        h->observe(v);
    std::string text = renderPrometheus(reg.snapshot());

    // observe(1) x2 -> the le="2" bucket; observe(3) -> le="6"
    // (cumulative 3); observe(1000) -> le="1022" (cumulative 4);
    // +Inf always equals _count. Zero buckets in between are elided
    // (sparse).
    EXPECT_NE(text.find("# TYPE sps_lat_us histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_lat_us_bucket{le=\"2\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_lat_us_bucket{le=\"6\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_lat_us_bucket{le=\"1022\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_lat_us_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("sps_lat_us_sum 1005\n"), std::string::npos);
    EXPECT_NE(text.find("sps_lat_us_count 4\n"), std::string::npos);
    EXPECT_EQ(text.find("le=\"14\""), std::string::npos)
        << "empty bucket should be elided";
}

TEST(MetricsRenderTest, PrometheusEveryLineParses)
{
    MetricsRegistry reg;
    Counter a;
    reg.expose("sps_a", "", "a", &a);
    a.inc();
    reg.gauge("sps_b", "k=\"v\"", "b")->set(9);
    reg.histogram("sps_c", "", "c")->observe(5);
    std::string text = renderPrometheus(reg.snapshot());

    // Line grammar the CI scrape check relies on: comments start with
    // '#'; samples are `name value` or `name{labels} value` with an
    // integer value.
    std::istringstream lines(text);
    std::string line;
    size_t samples = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        ++samples;
        size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        std::string name = line.substr(0, sp);
        std::string value = line.substr(sp + 1);
        size_t brace = name.find('{');
        if (brace != std::string::npos)
            EXPECT_EQ(name.back(), '}') << line;
        else
            EXPECT_EQ(name.find('}'), std::string::npos) << line;
        EXPECT_FALSE(value.empty()) << line;
        size_t digits = value[0] == '-' ? 1 : 0;
        for (size_t i = digits; i < value.size(); ++i)
            EXPECT_TRUE(value[i] >= '0' && value[i] <= '9') << line;
    }
    // counter + gauge + (buckets(1) + +Inf + sum + count).
    EXPECT_EQ(samples, 6u);
}

TEST(MetricsRenderTest, JsonCarriesQuantilesAndEscapes)
{
    MetricsRegistry reg;
    Histogram *h = reg.histogram("sps_lat_us", "app=\"DEPTH\"");
    for (int i = 0; i < 100; ++i)
        h->observe(2);
    Counter req;
    reg.expose("sps_req", "", "", &req);
    req.inc(7);
    std::string json = renderJson(reg.snapshot());

    EXPECT_NE(json.find("\"name\": \"sps_lat_us\""),
              std::string::npos);
    // The label string's quotes must arrive escaped.
    EXPECT_NE(json.find("\"labels\": \"app=\\\"DEPTH\\\"\""),
              std::string::npos);
    EXPECT_NE(json.find("\"p50\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
}

TEST(MetricsConcurrencyTest, SnapshotUnderLoadIsConsistent)
{
    // The registration-order contract the service relies on for
    // conservation: an "outcome" counter registered (and therefore
    // snapshot-read) before the "started" counter it never exceeds,
    // plus the histogram's count-then-bucket write order against its
    // bucket-then-count read order, keep every snapshot internally
    // consistent while writers hammer the handles. Four writers per
    // core get preempted mid-record, which is what exposes a wrong
    // order; snapshots run until the last writer is done. CI runs
    // this under TSan.
    MetricsRegistry reg;
    Counter done, started;
    reg.expose("sps_done_total", "", "", &done);
    reg.expose("sps_started_total", "", "", &started);
    Histogram *lat = reg.histogram("sps_lat_us");

    const int kThreads =
        4 * static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
    constexpr uint64_t kPerThread = 20000;
    std::atomic<bool> go{false};
    std::atomic<int> running{kThreads};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (uint64_t i = 0; i < kPerThread; ++i) {
                started.inc();
                lat->observe(i % 1024);
                done.inc();
            }
            running.fetch_sub(1);
        });
    go.store(true);

    int snapshots = 0, overtaken = 0, overcounted = 0;
    while (running.load() > 0) {
        MetricsSnapshot snap = reg.snapshot();
        ++snapshots;
        if (snap.value("sps_started_total") < snap.value("sps_done_total"))
            ++overtaken;
        const MetricSample *m = snap.find("sps_lat_us");
        ASSERT_NE(m, nullptr);
        uint64_t bucket_total = 0;
        for (uint64_t b : m->buckets)
            bucket_total += b;
        if (bucket_total > m->count)
            ++overcounted;
    }
    for (auto &t : writers)
        t.join();
    EXPECT_EQ(overtaken, 0)
        << "snapshots where an outcome overtook its start, of "
        << snapshots;
    EXPECT_EQ(overcounted, 0)
        << "snapshots where the bucket total overtook the count, of "
        << snapshots;

    // Quiescent: everything is exact.
    MetricsSnapshot snap = reg.snapshot();
    const uint64_t total = kThreads * kPerThread;
    EXPECT_EQ(snap.value("sps_started_total"),
              static_cast<int64_t>(total));
    EXPECT_EQ(snap.value("sps_done_total"),
              static_cast<int64_t>(total));
    const MetricSample *m = snap.find("sps_lat_us");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count, total);
    uint64_t bucket_total = 0;
    for (uint64_t b : m->buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, total);
    uint64_t per_thread_sum = 0;
    for (uint64_t i = 0; i < kPerThread; ++i)
        per_thread_sum += i % 1024;
    EXPECT_EQ(m->sum, kThreads * per_thread_sum);
}

} // namespace
} // namespace sps::obs
