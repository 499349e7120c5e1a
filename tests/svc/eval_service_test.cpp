// Tests for the evaluation service: the memory tier (completed and
// in-flight dedup), the disk tier (cross-service warm hits,
// bit-identical to computed results), the corruption contract, the
// workers (no head-of-line blocking, a draining shutdown), and the
// service's Figure-15 sweep: every point equal to core::runApp, and
// the same bytes on one thread as on four.
#include "svc/eval_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sched/schedule_cache.h"
#include "store/codec.h"
#include "stream/program.h"
#include "workloads/suite.h"

namespace sps::svc {
namespace {

std::string
freshRoot(const char *name)
{
    std::string root = ::testing::TempDir() + "sps_svc_" + name;
    std::filesystem::remove_all(root);
    return root;
}

std::vector<uint8_t>
encodeRes(const sim::SimResult &r)
{
    store::ByteWriter w;
    store::encodeSimResult(r, &w);
    return w.bytes();
}

const EvalPoint kPoint{"DEPTH", vlsi::MachineSize{8, 5}, {}};

TEST(EvalServiceTest, RepeatRequestResolvesFromMemory)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    sim::SimResult a = service.eval(kPoint);
    sim::SimResult b = service.eval(kPoint);
    EXPECT_EQ(encodeRes(a), encodeRes(b));
    auto c = service.counters();
    EXPECT_EQ(c.computed, 1u);
    EXPECT_EQ(c.submitted, 1u);
    EXPECT_EQ(c.memHits + c.inflightDedup, 1u);
}

TEST(EvalServiceTest, IdenticalSubmissionsComputeOnce)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    const size_t n = 16;
    std::vector<std::shared_future<sim::SimResult>> futures;
    for (size_t i = 0; i < n; ++i)
        futures.push_back(service.submit(kPoint));
    std::vector<uint8_t> first = encodeRes(futures[0].get());
    for (auto &f : futures)
        EXPECT_EQ(encodeRes(f.get()), first);
    auto c = service.counters();
    EXPECT_EQ(c.submitted, 1u);
    EXPECT_EQ(c.computed, 1u);
    EXPECT_EQ(c.memHits + c.inflightDedup, n - 1);
}

TEST(EvalServiceTest, DistinctPointsAreDistinctRequests)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    auto a = service.submit(kPoint);
    auto b = service.submit(EvalPoint{"DEPTH", {16, 5}, {}});
    auto c = service.submit(EvalPoint{"CONV", {8, 5}, {}});
    a.wait();
    b.wait();
    c.wait();
    EXPECT_EQ(service.counters().submitted, 3u);
    EXPECT_EQ(service.counters().computed, 3u);
}

TEST(EvalServiceTest, WarmStoreSkipsSimulation)
{
    std::string root = freshRoot("warm");
    store::ResultStore cold_store(root);
    std::vector<uint8_t> cold_bytes;
    {
        core::EvalEngine engine(2);
        EvalService service(&engine, &cold_store);
        cold_bytes = encodeRes(service.eval(kPoint));
        EXPECT_EQ(service.counters().computed, 1u);
        EXPECT_EQ(service.counters().diskHits, 0u);
    }

    // A second service (standing in for a second process) with the
    // same root answers from disk, bit-identically.
    store::ResultStore warm_store(root);
    core::EvalEngine engine(2);
    EvalService service(&engine, &warm_store);
    sim::SimResult res = service.eval(kPoint);
    EXPECT_EQ(encodeRes(res), cold_bytes);
    EXPECT_EQ(service.counters().computed, 0u);
    EXPECT_EQ(service.counters().diskHits, 1u);
    EXPECT_EQ(warm_store.counters().hits, 1u);
}

/** The store key is built only when a store is attached; wherever it
 *  is built, it must stay the program's fingerprint with the machine
 *  and config hashes of the configuration that was simulated. */
TEST(EvalServiceTest, StoredEntryIsKeyedByProgramFingerprint)
{
    std::string root = freshRoot("keyed");
    store::ResultStore store(root);
    std::vector<uint8_t> stored_bytes;
    {
        core::EvalEngine engine(2);
        EvalService service(&engine, &store);
        stored_bytes = encodeRes(service.eval(kPoint));
        EXPECT_EQ(service.counters().computed, 1u);
    }

    const sim::SimConfig cfg = effectiveSimConfig(kPoint);
    sim::StreamProcessor proc(cfg);
    const workloads::AppEntry *app = nullptr;
    auto apps = workloads::appSuite();
    for (const auto &a : apps)
        if (a.name == kPoint.app)
            app = &a;
    ASSERT_NE(app, nullptr);
    stream::StreamProgram prog = app->build(kPoint.size, proc.srf());
    store::Key key{store::Kind::SimResult, stream::programFingerprint(prog),
                   sched::machineConfigHash(proc.machine()),
                   simConfigHash(cfg)};
    sim::SimResult loaded;
    ASSERT_TRUE(store.loadSimResult(key, &loaded));
    EXPECT_EQ(encodeRes(loaded), stored_bytes);

    // A storeless service computes the same bytes.
    core::EvalEngine engine(2);
    EvalService storeless(&engine);
    EXPECT_EQ(encodeRes(storeless.eval(kPoint)), stored_bytes);
    EXPECT_EQ(storeless.counters().computed, 1u);
}

TEST(EvalServiceTest, CorruptEntryIsRecomputedNeverServed)
{
    std::string root = freshRoot("corrupt");
    {
        store::ResultStore store(root);
        core::EvalEngine engine(2);
        EvalService service(&engine, &store);
        service.eval(kPoint);
        ASSERT_EQ(service.counters().computed, 1u);
    }

    // Damage every persisted sim entry (truncate to half).
    int damaged = 0;
    for (auto &e : std::filesystem::directory_iterator(
             std::filesystem::path(root) / "sim")) {
        auto size = std::filesystem::file_size(e.path());
        std::filesystem::resize_file(e.path(), size / 2);
        ++damaged;
    }
    ASSERT_GT(damaged, 0);

    store::ResultStore store(root);
    core::EvalEngine engine(2);
    EvalService service(&engine, &store);
    sim::SimResult res = service.eval(kPoint);
    EXPECT_GT(res.cycles, 0);
    EXPECT_EQ(service.counters().diskHits, 0u);
    EXPECT_EQ(service.counters().computed, 1u);
    EXPECT_GT(store.counters().corrupt, 0u);
    EXPECT_EQ(store.counters().hits, 0u);

    // The recompute healed the entry: a third reader hits disk.
    store::ResultStore healed(root);
    core::EvalEngine engine2(2);
    EvalService service2(&engine2, &healed);
    service2.eval(kPoint);
    EXPECT_EQ(service2.counters().diskHits, 1u);
}

TEST(EvalServiceTest, ClearMemoryKeepsFuturesAndRecomputes)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    auto f = service.submit(kPoint);
    sim::SimResult before = f.get();
    service.clearMemory();
    // The handed-out future stays valid after the tier is dropped.
    EXPECT_EQ(encodeRes(f.get()), encodeRes(before));
    sim::SimResult after = service.eval(kPoint);
    EXPECT_EQ(encodeRes(after), encodeRes(before));
    EXPECT_EQ(service.counters().computed, 2u);
}

TEST(EvalServiceTest, AppPerformanceMatchesDirectPath)
{
    std::vector<int> cs{8, 16};
    std::vector<int> ns{5};
    core::EvalEngine engine(2);
    EvalService service(&engine);
    auto via_service = service.appPerformance(cs, ns);

    const auto apps = workloads::appSuite();
    ASSERT_EQ(via_service.size(), apps.size() * cs.size() * ns.size());
    size_t i = 0;
    for (const auto &app : apps) {
        for (int n : ns) {
            for (int c : cs) {
                const core::AppPoint &pt = via_service[i++];
                EXPECT_EQ(pt.app, app.name);
                EXPECT_EQ(pt.size.clusters, c);
                EXPECT_EQ(pt.size.alusPerCluster, n);
                core::AppPoint direct = core::runApp(pt.app, pt.size);
                EXPECT_EQ(pt.cycles, direct.cycles);
                EXPECT_EQ(pt.speedup, direct.speedup);
                EXPECT_EQ(pt.gops, direct.gops);
                EXPECT_EQ(encodeRes(pt.result), encodeRes(direct.result));
            }
        }
    }
    // Per app: one baseline submit plus two grid submits, of which
    // the C=8 N=5 grid point is the baseline's twin -- so exactly two
    // unique sims per app and one dedup'd request per app.
    auto c = service.counters();
    EXPECT_EQ(c.computed, apps.size() * 2);
    EXPECT_EQ(c.submitted, apps.size() * 2);
    EXPECT_EQ(c.memHits + c.inflightDedup, apps.size());
}

// The determinism guarantee for the Figure-15 grid: a sweep on four
// threads is byte-identical to the serial one.
TEST(EvalServiceTest, ParallelAppGridMatchesSerial)
{
    core::EvalEngine serial(1), parallel(4);
    EvalService serial_svc(&serial), parallel_svc(&parallel);
    auto a = serial_svc.appPerformance({8, 16}, {2, 5});
    auto b = parallel_svc.appPerformance({8, 16}, {2, 5});
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].app, b[i].app);
        EXPECT_EQ(a[i].size.clusters, b[i].size.clusters);
        EXPECT_EQ(a[i].size.alusPerCluster, b[i].size.alusPerCluster);
        EXPECT_EQ(a[i].speedup, b[i].speedup);
        EXPECT_EQ(a[i].gops, b[i].gops);
        EXPECT_EQ(encodeRes(a[i].result), encodeRes(b[i].result));
    }
}

TEST(EvalServiceTest, UnknownAppDeliversExceptionNotExit)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    auto f = service.submit(EvalPoint{"NOSUCHAPP", {8, 5}, {}});
    EXPECT_THROW(f.get(), std::runtime_error);
    // The service survives and keeps answering real requests.
    EXPECT_GT(service.eval(kPoint).cycles, 0);
}

// A slow point holds up only the worker that took it: with two
// workers, a point queued behind it resolves while it still runs.
TEST(EvalServiceTest, SlowPointDoesNotHoldUpTheNextRequest)
{
    core::EvalEngine engine(2);
    // Declared before the service, so it outlives every job.
    obs::MetricsRegistry registry;
    EvalService service(&engine);
    service.attachMetrics(&registry);
    obs::Histogram *queue_wait = registry.histogram("sps_queue_wait_us");
    // DEPTH on a fiftieth of the default SRF runs 61,440 stream ops:
    // tens of milliseconds even in a release build.
    sim::SimConfig small_srf;
    small_srf.params.rM *= 0.02;
    auto slow = service.submit(EvalPoint{"DEPTH", {8, 5}, small_srf});
    // A worker records the queue wait when it takes the job, right
    // after the span's queue stage; the histogram's count is atomic,
    // so this thread can poll it where it could not read a span.
    while (queue_wait->count() == 0)
        std::this_thread::yield();
    // An unknown app fails at once inside the job.
    auto fast = service.submit(EvalPoint{"NOSUCHAPP", {8, 5}, {}});
    fast.wait();
    EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_THROW(fast.get(), std::runtime_error);
    EXPECT_GT(slow.get().cycles, 0);
}

// Destruction drains the queue: every point submitted before the
// service goes away resolves to a result, none to broken_promise.
TEST(EvalServiceTest, DestructionResolvesEveryQueuedPoint)
{
    core::EvalEngine engine(2);
    std::vector<std::shared_future<sim::SimResult>> futures;
    {
        EvalService service(&engine);
        for (const auto &app : workloads::appSuite())
            for (int c : {8, 16})
                for (int n : {2, 5})
                    futures.push_back(
                        service.submit(EvalPoint{app.name, {c, n}, {}}));
    }
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_GT(f.get().cycles, 0);
    }
}

TEST(EvalServiceTest, BadMemoryOverrideDeliversExceptionNotAbort)
{
    // A memory, controller, params, technology or energy config the
    // model cannot run comes back through the requester's future as
    // invalid_argument; none may abort the shared service or be cached
    // as a result (NaN included).
    auto with = [](auto edit) {
        sim::SimConfig cfg;
        edit(cfg);
        return cfg;
    };
    using C = sim::SimConfig;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<sim::SimConfig> bad = {
        with([](C &c) { c.memConfig.channels = 0; }),
        with([](C &c) { c.memConfig.channels = -2; }),
        with([&](C &c) { c.memConfig.peakWordsPerCycle = nan; }),
        with([&](C &c) { c.memConfig.peakWordsPerCycle = inf; }),
        with([](C &c) { c.memConfig.peakWordsPerCycle = 0.0; }),
        with([](C &c) { c.memConfig.peakWordsPerCycle = -4.0; }),
        // A row miss longer than an int number of cycles.
        with([](C &c) { c.memConfig.peakWordsPerCycle = 1e-300; }),
        with([](C &c) {
            c.memConfig.timing.tRas = std::numeric_limits<int>::max();
        }),
        with([](C &c) { c.memConfig.timing.tRas = -100; }),
        with([](C &c) { c.memConfig.timing.tPre = -100; }),
        with([](C &c) { c.memConfig.latencyCycles = -1000; }),
        with([](C &c) { c.memConfig.schedWindow = 0; }),
        with([](C &c) { c.memConfig.schedMaxBypass = 0; }),
        with([](C &c) { c.memConfig.timing.banks = 0; }),
        with([](C &c) { c.memConfig.timing.rowWords = -1; }),
        with([](C &c) { c.scoreboardDepth = 0; }),
        with([](C &c) { c.scoreboardDepth = -1; }),
        with([](C &c) { c.hostIssueCycles = -5; }),
        // Params that leave the SRF without a word.
        with([](C &c) { c.params.rM = 0; }),
        with([&](C &c) { c.params.rM = nan; }),
        with([](C &c) { c.params.tMem = 0; }),
        with([](C &c) { c.ucConfig.pipeFillCycles = -50; }),
        // t_cyc and the FO4 delay set the clock and the pipelining.
        with([](C &c) { c.params.tCyc = 0; }),
        with([](C &c) { c.tech.fo4Ps = 0; }),
        // Any NaN double would poison the cycles or the energy.
        with([&](C &c) { c.params.h = nan; }),
        with([&](C &c) { c.energyConfig.idleFraction = nan; }),
        // No streambuffer ports: no kernel can issue.
        with([](C &c) { c.params.lC = -6; }),
        // Switch delays that are no int number of cycles.
        with([](C &c) { c.params.tCyc = 1e-300; }),
        with([](C &c) { c.params.v0 = 0; }),
        // Negative or NaN energy rates, a negative idle fraction and a
        // negative DRAM energy.
        with([](C &c) { c.params.b = -32; }),
        with([](C &c) { c.params.gSrf = 0; }),
        with([](C &c) { c.params.eAlu = -2e6; }),
        with([](C &c) { c.energyConfig.idleFraction = -1; }),
        with([](C &c) { c.energyConfig.dram.rowHitEnergyEw = -1e9; }),
        // Unit and streambuffer counts that are no int.
        with([](C &c) { c.params.gComm = 1e300; }),
        with([](C &c) { c.params.gSp = 1e300; }),
        with([](C &c) { c.params.lN = 1e300; }),
        with([](C &c) { c.params.lO = 1e300; }),
    };
    core::EvalEngine engine(2);
    EvalService service(&engine);
    for (const sim::SimConfig &cfg : bad)
        EXPECT_THROW(service.eval(EvalPoint{"DEPTH", {8, 5}, cfg}),
                     std::invalid_argument);
    // The service survives and keeps answering real requests.
    EXPECT_GT(service.eval(kPoint).cycles, 0);
}

TEST(EvalServiceTest, InfeasibleRecurrenceDeliversExceptionNotAbort)
{
    // A t_cyc this small turns every latency into 10^5-10^6 pipeline
    // stages, so QRD's housegen accumulator recurrence no longer fits
    // under the recurrence search's 2^20 cap. That is the request's
    // fault: it comes back as runtime_error, and the service answers
    // the next request.
    core::EvalEngine engine(2);
    EvalService service(&engine);
    for (double t_cyc : {1e-5, 1e-6}) {
        sim::SimConfig cfg;
        cfg.params.tCyc = t_cyc;
        EXPECT_THROW(service.eval(EvalPoint{"QRD", {8, 5}, cfg}),
                     std::runtime_error)
            << "t_cyc " << t_cyc;
    }
    EXPECT_GT(service.eval(kPoint).cycles, 0);
}

TEST(EvalServiceTest, EffectiveConfigPointSizeWins)
{
    sim::SimConfig cfg;
    cfg.size = {1, 1}; // stale size inside the override
    cfg.hostIssueCycles = 3;
    EvalPoint pt{"DEPTH", {16, 10}, cfg};
    sim::SimConfig eff = effectiveSimConfig(pt);
    EXPECT_EQ(eff.size.clusters, 16);
    EXPECT_EQ(eff.size.alusPerCluster, 10);
    EXPECT_EQ(eff.hostIssueCycles, 3);
    // No override: the defaults for the point's size.
    sim::SimConfig plain = effectiveSimConfig(kPoint);
    EXPECT_EQ(plain.size.clusters, 8);
    EXPECT_EQ(simConfigHash(plain), simConfigHash(sim::SimConfig{}));
}

TEST(EvalServiceTest, DefaultConfigOverrideDedupsAgainstPlainPoint)
{
    // An explicit override equal to the defaults is the *same*
    // request: the key hashes the effective config, not the presence
    // of the optional.
    core::EvalEngine engine(2);
    EvalService service(&engine);
    sim::SimResult a = service.eval(kPoint);
    EvalPoint same{"DEPTH", {8, 5}, sim::SimConfig{}};
    sim::SimResult b = service.eval(same);
    EXPECT_EQ(encodeRes(a), encodeRes(b));
    EXPECT_EQ(service.counters().computed, 1u);
    EXPECT_EQ(service.counters().submitted, 1u);
}

TEST(EvalServiceTest, ConfigOverrideComputesUnderItsOwnKey)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    sim::SimConfig slow;
    slow.memConfig.latencyCycles += 500;
    EvalPoint overridden{"DEPTH", {8, 5}, slow};
    sim::SimResult a = service.eval(kPoint);
    sim::SimResult b = service.eval(overridden);
    EXPECT_EQ(service.counters().computed, 2u);
    // The override really was simulated (not served from the plain
    // point's slot): the added memory latency shows up.
    EXPECT_NE(encodeRes(a), encodeRes(b));
}

/** Regression for the request-key/store-key divergence: the request
 *  key used to hash a default-constructed SimConfig while the worker
 *  simulated (and persisted) under the point's real config. With the
 *  key derived from effectiveSimConfig, a second service over the
 *  same store must answer an overridden point from disk. */
TEST(EvalServiceTest, OverriddenPointWarmHitsAcrossServices)
{
    std::string root = freshRoot("override_warm");
    sim::SimConfig cfg;
    cfg.scoreboardDepth = 4;
    EvalPoint pt{"DEPTH", {8, 5}, cfg};
    std::vector<uint8_t> cold_bytes;
    {
        store::ResultStore store(root);
        core::EvalEngine engine(2);
        EvalService service(&engine, &store);
        cold_bytes = encodeRes(service.eval(pt));
        EXPECT_EQ(service.counters().computed, 1u);
    }
    store::ResultStore store(root);
    core::EvalEngine engine(2);
    EvalService service(&engine, &store);
    EXPECT_EQ(encodeRes(service.eval(pt)), cold_bytes);
    EXPECT_EQ(service.counters().computed, 0u);
    EXPECT_EQ(service.counters().diskHits, 1u);
}

} // namespace
} // namespace sps::svc
