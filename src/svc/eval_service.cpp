#include "svc/eval_service.h"

#include <bit>
#include <chrono>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/fnv.h"
#include "stream/program.h"
#include "workloads/suite.h"

namespace sps::svc {

namespace {

/** Mix `v` into the hash: every int as a sign-extended 64-bit word,
 *  doubles as their bit patterns, strings length-prefixed, and a
 *  struct as its field table in order. */
template <typename T>
void
mixValue(Fnv &f, const T &v)
{
    if constexpr (std::is_integral_v<T>)
        f.mix(static_cast<uint64_t>(v));
    else if constexpr (std::is_same_v<T, double>)
        f.mix(std::bit_cast<uint64_t>(v));
    else if constexpr (std::is_same_v<T, std::string>)
        f.mix(v);
    else
        forEachField(v, [&f](const char *, const auto &m) {
            mixValue(f, m);
        });
}

} // namespace

uint64_t
simConfigHash(const sim::SimConfig &cfg)
{
    Fnv f;
    mixValue(f, cfg);
    return f.h;
}

EvalService::EvalService(core::EvalEngine *engine,
                         store::ResultStore *store)
    : store_(store)
{
    int n = core::resolveEngine(engine).threadCount();
    workers_.reserve(static_cast<size_t>(n));
    try {
        for (int i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // The workers already started hold `this`: join them before
        // the exception leaves the half-built service.
        stopWorkers();
        throw;
    }
}

EvalService::~EvalService()
{
    stopWorkers();
}

void
EvalService::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

sim::SimConfig
effectiveSimConfig(const EvalPoint &pt)
{
    sim::SimConfig cfg = pt.config ? *pt.config : sim::SimConfig{};
    // The point's size always wins: a request is "this app at this
    // machine size", and the override only reshapes the rest of the
    // configuration.
    cfg.size = pt.size;
    return cfg;
}

std::string
EvalService::requestKey(const EvalPoint &pt) const
{
    // The request key dedups *requests*; the content-addressed store
    // key (program x machine x config) is derived in the worker once
    // the program is built, and only when a store is attached. Both
    // must separate the same points: two requests differing only in
    // configuration never share a key because both hash the
    // *effective* configuration -- the same sim::SimConfig the worker
    // instantiates the processor from, so the request key cannot
    // diverge from the store key.
    return pt.app + "|" + std::to_string(pt.size.clusters) + "|" +
           std::to_string(pt.size.alusPerCluster) + "|" +
           std::to_string(simConfigHash(effectiveSimConfig(pt)));
}

std::shared_future<sim::SimResult>
EvalService::submit(const EvalPoint &pt)
{
    return submit(pt, nullptr);
}

std::shared_future<sim::SimResult>
EvalService::submit(const EvalPoint &pt,
                    std::shared_ptr<obs::RequestSpan> span)
{
    return submitEntry(pt, std::move(span))->result();
}

std::shared_ptr<ResultEntry>
EvalService::submitEntry(const EvalPoint &pt,
                         std::shared_ptr<obs::RequestSpan> span)
{
    Metrics *m = metrics_.load(std::memory_order_acquire);
    uint64_t t0 = m ? obs::monotonicMicros() : 0;
    std::string key = requestKey(pt);
    std::shared_ptr<ResultEntry> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        requests_.inc();
        auto it = results_.find(key);
        if (it != results_.end()) {
            // Both flavors count as the memory tier: the request was
            // served without touching disk or a worker (a dedup'd
            // in-flight twin rides the winner's work).
            constexpr int kMem = static_cast<int>(obs::Tier::Mem);
            tier_[kMem].inc();
            if (it->second->result().wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                inflightDedup_.inc();
            if (span)
                span->setTier(obs::Tier::Mem);
            if (m)
                m->durationTier[kMem]->observe(obs::monotonicMicros() -
                                               t0);
            return it->second;
        }
        Job job;
        job.pt = pt;
        job.span = std::move(span);
        job.enqueueUs = obs::monotonicMicros();
        entry = std::make_shared<ResultEntry>(
            job.promise.get_future().share());
        results_.emplace(std::move(key), entry);
        pending_.push_back(std::move(job));
    }
    wake_.notify_one();
    return entry;
}

sim::SimResult
EvalService::eval(const EvalPoint &pt)
{
    return submit(pt).get();
}

void
EvalService::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock,
                       [&] { return stop_ || !pending_.empty(); });
            // Stop only once the queue is drained: every job queued
            // before destruction still resolves its promise.
            if (pending_.empty())
                return;
            job = std::move(pending_.front());
            pending_.pop_front();
        }
        try {
            runJob(job);
        } catch (...) {
            // Evaluation failures already reached the promise; a job
            // whose promise dies unfulfilled delivers broken_promise.
            // Keep the worker alive.
        }
    }
}

void
EvalService::runJob(Job &job)
{
    Metrics *m = metrics_.load(std::memory_order_acquire);
    obs::RequestSpan *span = job.span.get();
    uint64_t start = obs::monotonicMicros();
    if (span)
        span->stage("queue", job.enqueueUs, start);
    if (m)
        m->queueWait->observe(start - job.enqueueUs);
    obs::Tier tier = obs::Tier::Error;
    sim::SimResult res;
    std::exception_ptr err;
    try {
        const workloads::AppEntry *entry = nullptr;
        auto apps = workloads::appSuite();
        for (const auto &app : apps)
            if (app.name == job.pt.app)
                entry = &app;
        // Delivered through the requester's future, not fatal(): a
        // bad request must not take the whole service down.
        if (!entry)
            throw std::runtime_error(
                "EvalService: unknown application " + job.pt.app);
        if (job.pt.size.clusters <= 0 || job.pt.size.alusPerCluster <= 0)
            throw std::runtime_error(
                "EvalService: machine size must be positive, got C=" +
                std::to_string(job.pt.size.clusters) +
                " N=" + std::to_string(job.pt.size.alusPerCluster));

        // The processor is built from the same effective config the
        // request key hashed; StreamProcessor carries it verbatim, so
        // simConfigHash(proc.config()) below keys the store entry
        // under exactly the configuration that was simulated.
        uint64_t tBuild = obs::monotonicMicros();
        sim::StreamProcessor proc(effectiveSimConfig(job.pt));
        stream::StreamProgram prog =
            entry->build(job.pt.size, proc.srf());
        if (span)
            span->stage("build", tBuild, obs::monotonicMicros());

        // The store key fingerprints the whole program, which costs
        // about as much as building it: only a store needs it.
        store::Key key;
        bool from_disk = false;
        if (store_) {
            key = store::Key{store::Kind::SimResult,
                             stream::programFingerprint(prog),
                             sched::machineConfigHash(proc.machine()),
                             simConfigHash(proc.config())};
            obs::StageTimer t(span, "store_get");
            from_disk = store_->loadSimResult(key, &res);
        }
        if (from_disk) {
            tier = obs::Tier::Disk;
        } else {
            uint64_t tSim = obs::monotonicMicros();
            res = proc.run(prog);
            uint64_t tSimEnd = obs::monotonicMicros();
            if (span)
                span->stage("sim", tSim, tSimEnd);
            if (m)
                m->simDuration->observe(tSimEnd - tSim);
            tier = obs::Tier::Compute;
            if (store_) {
                obs::StageTimer t(span, "store_put");
                store_->storeSimResult(key, res);
            }
        }
    } catch (...) {
        err = std::current_exception();
        tier = obs::Tier::Error;
    }
    // One tier outcome per job, success or not: the conservation
    // invariant (requests == mem + disk + compute + error) counts
    // exceptional resolutions too. Recorded *before* the promise
    // resolves: the waiter's get() is the caller's quiescence point,
    // so a snapshot taken after eval() returns must already include
    // this request's outcome.
    int ti = static_cast<int>(tier);
    tier_[ti].inc();
    if (span)
        span->setTier(tier);
    if (m)
        m->durationTier[ti]->observe(obs::monotonicMicros() -
                                     job.enqueueUs);
    if (err)
        job.promise.set_exception(std::move(err));
    else
        job.promise.set_value(std::move(res));
}

AppSweepPlan
appSweepPlan(const std::vector<int> &c_values,
             const std::vector<int> &n_values)
{
    AppSweepPlan plan;
    auto apps = workloads::appSuite();
    plan.baselines.reserve(apps.size());
    for (const auto &app : apps)
        plan.baselines.push_back(
            EvalPoint{app.name, core::kBaseline, {}});
    plan.grid.reserve(apps.size() * n_values.size() * c_values.size());
    for (const auto &app : apps)
        for (int n : n_values)
            for (int c : c_values)
                plan.grid.push_back(
                    EvalPoint{app.name, vlsi::MachineSize{c, n}, {}});
    return plan;
}

std::vector<core::AppPoint>
assembleAppPoints(const AppSweepPlan &plan,
                  const std::vector<sim::SimResult> &base_by_app,
                  std::vector<sim::SimResult> grid_results)
{
    std::vector<core::AppPoint> out;
    out.reserve(grid_results.size());
    const size_t per_app = plan.baselines.empty()
                               ? 1
                               : plan.grid.size() /
                                     plan.baselines.size();
    for (size_t i = 0; i < grid_results.size(); ++i) {
        const sim::SimResult &base = base_by_app[i / per_app];
        sim::SimResult res = std::move(grid_results[i]);
        core::AppPoint pt;
        pt.app = plan.grid[i].app;
        pt.size = plan.grid[i].size;
        pt.cycles = res.cycles;
        pt.speedup = static_cast<double>(base.cycles) /
                     static_cast<double>(res.cycles);
        const sim::SimConfig cfg = effectiveSimConfig(plan.grid[i]);
        pt.gops = res.gops(vlsi::clockGHz(cfg.tech, cfg.params));
        pt.result = std::move(res);
        out.push_back(std::move(pt));
    }
    return out;
}

std::vector<core::AppPoint>
EvalService::appPerformance(const std::vector<int> &c_values,
                            const std::vector<int> &n_values)
{
    // Submit the whole sweep -- baselines first, then the grid in the
    // canonical app -> n -> c axis order -- and only then collect, so
    // every worker has a point to take and the baseline dedups against
    // its grid twin.
    AppSweepPlan plan = appSweepPlan(c_values, n_values);
    std::vector<std::shared_future<sim::SimResult>> base_futures;
    base_futures.reserve(plan.baselines.size());
    for (const auto &pt : plan.baselines)
        base_futures.push_back(submit(pt));
    std::vector<std::shared_future<sim::SimResult>> grid_futures;
    grid_futures.reserve(plan.grid.size());
    for (const auto &pt : plan.grid)
        grid_futures.push_back(submit(pt));

    std::vector<sim::SimResult> base;
    base.reserve(base_futures.size());
    for (auto &f : base_futures)
        base.push_back(f.get());
    std::vector<sim::SimResult> grid;
    grid.reserve(grid_futures.size());
    for (auto &f : grid_futures)
        grid.push_back(f.get());
    return assembleAppPoints(plan, base, std::move(grid));
}

void
EvalService::clearMemory()
{
    std::lock_guard<std::mutex> lock(mu_);
    // Only completed entries may go: an in-flight future must stay
    // mapped so later identical submissions keep deduplicating onto
    // it instead of double-computing.
    for (auto it = results_.begin(); it != results_.end();) {
        if (it->second->result().wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
            it = results_.erase(it);
        else
            ++it;
    }
}

void
EvalService::attachMetrics(obs::MetricsRegistry *registry)
{
    if (!registry) {
        metrics_.store(nullptr, std::memory_order_release);
        return;
    }
    constexpr obs::Tier kTiers[] = {obs::Tier::Mem, obs::Tier::Disk,
                                    obs::Tier::Compute,
                                    obs::Tier::Error};
    auto label = [](obs::Tier t) {
        return std::string("tier=\"") + obs::tierName(t) + "\"";
    };
    // The tier counters are exposed (and therefore snapshot-read)
    // *before* the request total: a request counts in requests_total
    // first and in its tier later, so reading outcomes before the
    // total keeps sum(tiers) <= requests_total in every concurrent
    // snapshot.
    for (obs::Tier t : kTiers)
        registry->expose(
            "sps_requests_tier_total", label(t),
            "Requests resolved per tier (mem / disk / compute / error)",
            &tier_[static_cast<int>(t)]);
    registry->expose("sps_requests_total", "",
                     "Evaluation requests submitted to the service",
                     &requests_);
    registry->expose("sps_service_inflight_dedup", "",
                     "Mem-tier requests that joined an in-flight twin",
                     &inflightDedup_);
    auto m = std::make_unique<Metrics>();
    for (obs::Tier t : kTiers)
        m->durationTier[static_cast<int>(t)] = registry->histogram(
            "sps_request_duration_us", label(t),
            "Submit-to-resolution request latency (us)");
    m->queueWait = registry->histogram(
        "sps_queue_wait_us", "",
        "Submit-to-dispatch queue wait (us)");
    m->simDuration = registry->histogram(
        "sps_sim_duration_us", "",
        "Simulation wall time of computed requests (us)");
    metricsStorage_ = std::move(m);
    metrics_.store(metricsStorage_.get(), std::memory_order_release);
}

ServiceCounters
EvalService::counters() const
{
    // Under mu_, where submit() counts a request together with its
    // mem-tier outcome, so the differences never see half a request.
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t mem = tier_[static_cast<int>(obs::Tier::Mem)].value();
    ServiceCounters c;
    c.submitted = requests_.value() - mem;
    c.inflightDedup = inflightDedup_.value();
    c.memHits = mem - c.inflightDedup;
    c.diskHits = tier_[static_cast<int>(obs::Tier::Disk)].value();
    c.computed = tier_[static_cast<int>(obs::Tier::Compute)].value();
    return c;
}

} // namespace sps::svc
