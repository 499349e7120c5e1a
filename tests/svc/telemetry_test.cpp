// End-to-end telemetry tests: the conservation invariant
// (requests_total == mem + disk + compute + error, per-tier histogram
// counts matching tier counters), each component's counters() reading
// the same counts a scrape does, snapshot consistency under a
// concurrent submit storm (TSan-covered in CI), the MetricsRequest
// round trip through server and client, and the server-side span
// pipeline behind the slow-request log and the Chrome-trace export.
#ifndef _WIN32

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/eval_engine.h"
#include "obs/metrics.h"
#include "svc/eval_client.h"
#include "svc/eval_server.h"
#include "svc/eval_service.h"
#include "trace/tracer.h"

namespace sps::svc {
namespace {

std::string
freshRoot(const char *name)
{
    std::string root = ::testing::TempDir() + "sps_telemetry_" + name;
    std::filesystem::remove_all(root);
    return root;
}

std::string
freshSock(const char *name)
{
    std::string path = "/tmp/sps_evald_test_" +
                       std::to_string(::getpid()) + "_" + name +
                       ".sock";
    ::unlink(path.c_str());
    return path;
}

const EvalPoint kPoint{"DEPTH", vlsi::MachineSize{8, 5}, {}};

uint64_t
scraped(const obs::MetricsSnapshot &snap, const char *name,
        const std::string &labels = "")
{
    return static_cast<uint64_t>(snap.value(name, labels));
}

uint64_t
tierCounter(const obs::MetricsSnapshot &snap, const char *tier)
{
    return scraped(snap, "sps_requests_tier_total",
                   std::string("tier=\"") + tier + "\"");
}

uint64_t
tierHistCount(const obs::MetricsSnapshot &snap, const char *tier)
{
    const obs::MetricSample *m =
        snap.find("sps_request_duration_us",
                  std::string("tier=\"") + tier + "\"");
    return m ? m->count : 0;
}

TEST(ServiceTelemetryTest, ConservationAcrossMemComputeAndError)
{
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    service.attachMetrics(&reg);
    engine.cache().attachMetrics(&reg);

    service.eval(kPoint);                            // compute
    service.eval(kPoint);                            // mem
    EXPECT_THROW(service.eval({"NO_SUCH_APP", {8, 5}, {}}),
                 std::runtime_error);                // error

    obs::MetricsSnapshot snap = reg.snapshot();
    // The shared schedule cache's counters() reads what the scrape
    // read. Detach first: the process-wide cache outlives `reg`.
    sched::ScheduleCache::Counters cache = engine.cache().counters();
    engine.cache().attachMetrics(nullptr);
    EXPECT_EQ(cache.hits, scraped(snap, "sps_sched_cache_hits"));
    EXPECT_EQ(cache.diskHits, scraped(snap, "sps_sched_cache_disk_hits"));
    EXPECT_EQ(cache.misses, scraped(snap, "sps_sched_cache_compiles"));
    EXPECT_GT(cache.hits + cache.misses, 0u);

    EXPECT_EQ(snap.value("sps_requests_total"), 3);
    EXPECT_EQ(tierCounter(snap, "compute"), 1u);
    EXPECT_EQ(tierCounter(snap, "mem"), 1u);
    EXPECT_EQ(tierCounter(snap, "error"), 1u);
    EXPECT_EQ(tierCounter(snap, "disk"), 0u);

    // Every request resolved to exactly one tier, and the per-tier
    // duration histogram saw exactly what its counter saw.
    uint64_t tier_sum = 0;
    for (const char *tier : {"mem", "disk", "compute", "error"}) {
        EXPECT_EQ(tierHistCount(snap, tier), tierCounter(snap, tier))
            << "tier " << tier;
        tier_sum += tierCounter(snap, tier);
    }
    EXPECT_EQ(tier_sum,
              static_cast<uint64_t>(snap.value("sps_requests_total")));

    // Queue wait is recorded per dispatched job: the compute and the
    // error request queued, the mem hit resolved inside submit().
    const obs::MetricSample *qw = snap.find("sps_queue_wait_us");
    ASSERT_NE(qw, nullptr);
    EXPECT_EQ(qw->count, 2u);
    const obs::MetricSample *sim = snap.find("sps_sim_duration_us");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->count, 1u);

    // ServiceCounters is a view over the counters the scrape read.
    ServiceCounters c = service.counters();
    EXPECT_EQ(c.memHits + c.inflightDedup, tierCounter(snap, "mem"));
    EXPECT_EQ(c.inflightDedup,
              scraped(snap, "sps_service_inflight_dedup"));
    EXPECT_EQ(c.diskHits, tierCounter(snap, "disk"));
    EXPECT_EQ(c.computed, tierCounter(snap, "compute"));
    EXPECT_EQ(c.submitted, scraped(snap, "sps_requests_total") -
                               tierCounter(snap, "mem"));
}

TEST(ServiceTelemetryTest, DiskTierCountsInConservation)
{
    std::string root = freshRoot("disk");
    {
        store::ResultStore cold(root);
        core::EvalEngine engine(2);
        EvalService service(&engine, &cold);
        service.eval(kPoint);
    }

    obs::MetricsRegistry reg;
    store::ResultStore warm(root);
    warm.attachMetrics(&reg);
    core::EvalEngine engine(2);
    EvalService service(&engine, &warm);
    service.attachMetrics(&reg);
    service.eval(kPoint);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_requests_total"), 1);
    EXPECT_EQ(tierCounter(snap, "disk"), 1u);
    EXPECT_EQ(tierCounter(snap, "compute"), 0u);
    EXPECT_EQ(tierHistCount(snap, "disk"), 1u);
    // No simulation ran, and the store's own instrumentation saw the
    // hit.
    const obs::MetricSample *sim = snap.find("sps_sim_duration_us");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->count, 0u);
    const obs::MetricSample *get =
        snap.find("sps_store_get_duration_us", "result=\"hit\"");
    ASSERT_NE(get, nullptr);
    EXPECT_GE(get->count, 1u);
    EXPECT_GE(snap.value("sps_store_hits"), 1);

    // The store's counters() reads what the scrape read.
    store::StoreCounters sc = warm.counters();
    for (auto [name, value] :
         {std::pair{"sps_store_hits", sc.hits},
          std::pair{"sps_store_misses", sc.misses},
          std::pair{"sps_store_corrupt", sc.corrupt},
          std::pair{"sps_store_writes", sc.writes},
          std::pair{"sps_store_write_errors", sc.writeErrors},
          std::pair{"sps_store_evicted", sc.evicted},
          std::pair{"sps_store_reclaimed_bytes", sc.reclaimedBytes}})
        EXPECT_EQ(scraped(snap, name), value) << name;
}

TEST(ServiceTelemetryTest, SnapshotsStayConsistentUnderSubmitStorm)
{
    // Writers hammer submit() from several threads (dedup hits,
    // distinct computes, and errors all mixed) while this thread
    // scrapes; every scrape must satisfy the monotone invariant
    // sum(tiers) <= requests_total, and the quiescent scrape must
    // satisfy exact conservation. CI runs this under TSan.
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    service.attachMetrics(&reg);

    constexpr int kThreads = 3;
    constexpr int kRounds = 40;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
            std::vector<std::shared_future<sim::SimResult>> futures;
            for (int i = 0; i < kRounds; ++i) {
                futures.push_back(service.submit(kPoint));
                if (i % 8 == t)
                    futures.push_back(service.submit(
                        {"NO_SUCH_APP", {8, 5}, {}}));
            }
            for (auto &f : futures) {
                try {
                    f.get();
                } catch (const std::exception &) {
                    // error-tier futures resolve by throwing
                }
            }
        });

    std::thread scraper([&] {
        while (!done.load()) {
            obs::MetricsSnapshot snap = reg.snapshot();
            uint64_t tier_sum = 0;
            for (const char *tier :
                 {"mem", "disk", "compute", "error"}) {
                tier_sum += tierCounter(snap, tier);
                const obs::MetricSample *h =
                    snap.find("sps_request_duration_us",
                              std::string("tier=\"") + tier + "\"");
                ASSERT_NE(h, nullptr);
                uint64_t buckets = 0;
                for (uint64_t b : h->buckets)
                    buckets += b;
                EXPECT_LE(buckets, h->count);
            }
            EXPECT_LE(
                tier_sum,
                static_cast<uint64_t>(snap.value("sps_requests_total")))
                << "a tier outcome appeared before its request";
            std::this_thread::yield();
        }
    });

    for (auto &t : writers)
        t.join();
    done.store(true);
    scraper.join();

    obs::MetricsSnapshot snap = reg.snapshot();
    uint64_t tier_sum = 0;
    for (const char *tier : {"mem", "disk", "compute", "error"}) {
        EXPECT_EQ(tierHistCount(snap, tier), tierCounter(snap, tier))
            << "tier " << tier;
        tier_sum += tierCounter(snap, tier);
    }
    EXPECT_EQ(tier_sum,
              static_cast<uint64_t>(snap.value("sps_requests_total")));
    EXPECT_EQ(tierCounter(snap, "compute"), 1u);
    EXPECT_GE(tierCounter(snap, "error"), 1u);
}

TEST(ServerTelemetryTest, MetricsRoundTripThroughTheSocket)
{
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("metrics");
    ServerTelemetry telemetry;
    telemetry.registry = &reg;
    EvalServer server(&service, sock, telemetry);

    EvalClient client(sock);
    client.eval(kPoint);
    client.eval(kPoint);
    EXPECT_THROW(client.eval({"NO_SUCH_APP", {8, 5}, {}}),
                 std::runtime_error);

    // The scraped snapshot is the same registry the server serves
    // from, shipped over the wire structurally intact.
    obs::MetricsSnapshot snap = client.metrics();
    EXPECT_FALSE(client.dead());
    EXPECT_EQ(snap.value("sps_requests_total"), 3);
    EXPECT_EQ(tierCounter(snap, "compute"), 1u);
    EXPECT_EQ(tierCounter(snap, "mem"), 1u);
    EXPECT_EQ(tierCounter(snap, "error"), 1u);
    const obs::MetricSample *e2e =
        snap.find("sps_server_request_duration_us");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->count, 3u);
    EXPECT_GE(snap.value("sps_server_connections"), 1);
    // The server's counters() reads what the scrape read (the scrape
    // itself is the fourth request).
    EvalServer::Counters sc = server.counters();
    EXPECT_EQ(sc.requests, 4u);
    EXPECT_EQ(sc.connections, scraped(snap, "sps_server_connections"));
    EXPECT_EQ(sc.requests, scraped(snap, "sps_server_requests"));
    EXPECT_EQ(sc.protocolErrors,
              scraped(snap, "sps_server_protocol_errors"));
    // Two replies from one entry: one frame built.
    EXPECT_EQ(sc.resultEncodes, 1u);
    EXPECT_EQ(sc.resultEncodes,
              scraped(snap, "sps_server_result_encodes"));
    // The decoded snapshot renders exactly like a local one.
    std::string text = obs::renderPrometheus(snap);
    EXPECT_NE(text.find("sps_requests_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE sps_request_duration_us histogram"),
              std::string::npos);

    // The server retired one span per request, each with a resolved
    // tier and a delivery stage, exportable as a Chrome trace.
    EXPECT_EQ(server.spanRecorder().retiredCount(), 3u);
    for (const auto &span : server.spanRecorder().spans()) {
        EXPECT_NE(span->tier(), obs::Tier::Unknown);
        EXPECT_NE(span->label().find("/8x5"), std::string::npos)
            << span->label();
        bool delivered = false;
        for (const auto &stage : span->stages())
            if (std::string(stage.name) == "deliver")
                delivered = true;
        EXPECT_TRUE(delivered) << span->describe();
    }
    trace::Tracer tracer;
    server.spanRecorder().toTracer(&tracer);
    EXPECT_GT(tracer.size(), 0u);

    server.stop();
}

TEST(ServerTelemetryTest, LocalSnapshotMatchesTheWire)
{
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("localsnap");
    ServerTelemetry telemetry;
    telemetry.registry = &reg;
    EvalServer server(&service, sock, telemetry);

    EvalClient client(sock);
    client.eval(kPoint);
    obs::MetricsSnapshot wire = client.metrics();
    obs::MetricsSnapshot local = server.metricsSnapshot();
    // Quiescent, so the two scrapes agree on everything that counts.
    EXPECT_EQ(local.value("sps_requests_total"),
              wire.value("sps_requests_total"));
    EXPECT_EQ(tierCounter(local, "compute"),
              tierCounter(wire, "compute"));
    server.stop();
}

TEST(ServerTelemetryTest, MetricsWithoutTelemetryIsACleanError)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("nometrics");
    EvalServer server(&service, sock); // no registry

    EvalClient client(sock);
    EXPECT_THROW(client.metrics(), std::runtime_error);
    // A well-formed-but-unanswerable request keeps the conversation
    // in lockstep: the connection survives.
    EXPECT_FALSE(client.dead());
    EXPECT_GT(client.eval(kPoint).cycles, 0);
    EXPECT_EQ(server.metricsSnapshot().metrics.size(), 0u);
    server.stop();
}

} // namespace
} // namespace sps::svc

#endif // !_WIN32
