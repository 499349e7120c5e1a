/**
 * @file
 * The persistent evaluation service: an async, dedup'd job queue
 * layered on core::EvalEngine that turns the one-shot evaluation
 * stack into a long-lived sweep server. Clients submit() design
 * points (an application at a machine size) from any thread and get
 * shared futures back. The service owns one worker thread per thread
 * of its engine; each worker takes the oldest queued job, evaluates
 * it and takes the next, so a slow point holds up only its own worker.
 *
 * Every request passes through three tiers:
 *  - memory:  a completed identical request resolves immediately, and
 *             an *in-flight* identical request hands the second
 *             requester the first one's future (no duplicate work);
 *  - disk:    with a store::ResultStore attached, a verified entry
 *             keyed by (stream::programFingerprint, machineConfigHash,
 *             simConfigHash) decodes bit-identically instead of
 *             re-simulating -- this is what a warm --cache-dir run
 *             hits, across processes. The key is built only with a
 *             store attached: fingerprinting the program costs about
 *             as much as building it, and a storeless service never
 *             reads the key;
 *  - compute: the simulation runs on the worker that took the job and
 *             the result is written back to the store.
 *
 * A memory-tier entry (ResultEntry) is the result's future plus, once
 * the socket server has delivered it, the result's whole EvalResult
 * frame: built on the entry's first socket delivery, written as-is
 * for every later reply from the entry, and freed with the entry by
 * clearMemory(). In-process callers of submit() read only the future
 * and never build a frame.
 *
 * Kernel compilations inside the simulations flow through the shared
 * sched::ScheduleCache, which holds the same store as its own disk
 * tier, so a warm run performs zero schedule compiles as well as zero
 * re-simulations.
 */
#ifndef SPS_SVC_EVAL_SERVICE_H
#define SPS_SVC_EVAL_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/eval_engine.h"
#include "core/experiments.h"
#include "obs/span.h"
#include "sim/processor.h"
#include "store/result_store.h"

namespace sps::svc {

/**
 * Hash of every sim::SimConfig field that shapes a simulation result
 * (machine size, Table-1 params, technology, memory system, host
 * interface, energy accounting), walked through SimConfig's field
 * table (common/fields.h). Part of the sim-result store key, so
 * results computed under different configurations never alias.
 */
uint64_t simConfigHash(const sim::SimConfig &cfg);

/** One design point the service evaluates. */
struct EvalPoint
{
    /** Application name from workloads::appSuite() (e.g. "RENDER"). */
    std::string app;
    vlsi::MachineSize size{8, 5};
    /**
     * Optional explicit simulator configuration. When set, the
     * simulation runs under exactly this configuration (with its size
     * field overridden by `size`); when unset, the default
     * configuration for `size`. The socket protocol carries this
     * field, so remote clients can sweep non-default configurations.
     */
    std::optional<sim::SimConfig> config;
};

/**
 * The configuration `pt` actually simulates under: the override when
 * present (size forced to pt.size), the defaults otherwise. Both the
 * request key and the worker derive from this one function, so the
 * request key can never silently diverge from the store key.
 */
sim::SimConfig effectiveSimConfig(const EvalPoint &pt);

/**
 * The canonical Figure-15 submission order: one baseline point per
 * app, then the app -> n -> c grid. Both EvalService::appPerformance
 * and the socket client submit in exactly this order, which is what
 * keeps their CSVs byte-identical to each other.
 */
struct AppSweepPlan
{
    std::vector<EvalPoint> baselines; ///< one per app, suite order
    std::vector<EvalPoint> grid;      ///< app -> n -> c
};
AppSweepPlan appSweepPlan(const std::vector<int> &c_values,
                          const std::vector<int> &n_values);

/**
 * Assemble Figure-15 AppPoints from simulation results gathered in
 * appSweepPlan order: `base_by_app[i]` is the baseline result of app
 * i, `grid_results[j]` the result of `plan.grid[j]`.
 */
std::vector<core::AppPoint>
assembleAppPoints(const AppSweepPlan &plan,
                  const std::vector<sim::SimResult> &base_by_app,
                  std::vector<sim::SimResult> grid_results);

/**
 * One memory-tier entry: a request's result future and, once a socket
 * has delivered the result, its complete EvalResult frame (header,
 * checksum and store-codec payload). The server builds the frame on
 * the entry's first delivery and writes those same bytes for every
 * later reply served from the entry.
 */
class ResultEntry
{
  public:
    explicit ResultEntry(std::shared_future<sim::SimResult> result)
        : result_(std::move(result))
    {
    }

    const std::shared_future<sim::SimResult> &result() const
    {
        return result_;
    }

    /**
     * Wait for the result and return its frame, calling build(result)
     * to make it only when no earlier delivery has. An exceptional
     * result rethrows before anything is kept, and a build that throws
     * leaves the entry empty for the next delivery, so an error is
     * never cached as a frame. Safe from any thread; the bytes stay
     * unchanged for as long as the caller holds the entry.
     */
    template <typename Build>
    const std::vector<uint8_t> &
    frame(Build &&build)
    {
        const sim::SimResult &res = result_.get();
        std::lock_guard<std::mutex> lock(frameMu_);
        if (frame_.empty())
            frame_ = build(res);
        return frame_;
    }

  private:
    std::shared_future<sim::SimResult> result_;
    std::mutex frameMu_;
    std::vector<uint8_t> frame_; ///< empty until the first delivery
};

/** Monotonic per-tier counts of one service instance: a view over
 *  the service's own counters (EvalService::counters()). */
struct ServiceCounters
{
    uint64_t submitted = 0;     ///< distinct requests queued
    uint64_t memHits = 0;       ///< resolved from a completed result
    uint64_t inflightDedup = 0; ///< joined an in-flight identical job
    uint64_t diskHits = 0;      ///< decoded from the attached store
    uint64_t computed = 0;      ///< actually simulated
};

class EvalService
{
  public:
    /**
     * Starts engine.threadCount() workers; engine == nullptr sizes
     * them by EvalEngine::global(). Only the thread count is read: the
     * engine's pool runs no request. store == nullptr runs memory-only
     * (no persistent tier). The store must outlive the service.
     */
    explicit EvalService(core::EvalEngine *engine = nullptr,
                         store::ResultStore *store = nullptr);
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Queue a design point for evaluation. Identical points (same
     * app, size, and simulation configuration) are deduplicated: a
     * repeat of a completed point resolves from memory, a repeat of
     * an in-flight point returns the in-flight future.
     */
    std::shared_future<sim::SimResult> submit(const EvalPoint &pt);

    /**
     * submit() carrying a request span: the service records the
     * queue-wait, build, store-read, simulation, and write-back
     * stages onto it and stamps the tier that served the request
     * (mem for both completed-result and in-flight dedup hits).
     * The span must stay alive until the returned future is ready;
     * the service never finish()es it -- the caller does, after
     * delivery. A null span is identical to plain submit().
     */
    std::shared_future<sim::SimResult>
    submit(const EvalPoint &pt, std::shared_ptr<obs::RequestSpan> span);

    /**
     * submit() for a caller that delivers the result over a socket:
     * the memory-tier entry itself, whose frame() every later request
     * served from the same entry reuses. The entry outlives
     * clearMemory() for as long as the caller holds it.
     */
    std::shared_ptr<ResultEntry>
    submitEntry(const EvalPoint &pt,
                std::shared_ptr<obs::RequestSpan> span);

    /** submit() and wait. */
    sim::SimResult eval(const EvalPoint &pt);

    /**
     * Figure 15 through the service: one AppPoint per grid point in
     * app -> n -> c order, each equal to core::runApp for its (app,
     * size), but every (app, size) simulation -- baselines included
     * -- is submitted through the tiered, dedup'd queue. The baseline
     * point dedups against its grid twin when the grid contains
     * core::kBaseline.
     */
    std::vector<core::AppPoint>
    appPerformance(const std::vector<int> &c_values,
                   const std::vector<int> &n_values);

    /**
     * Forget completed in-memory results and their frames (the memory
     * tier only; the disk store is untouched). Outstanding futures and
     * entries stay valid. Does not reset the counters.
     */
    void clearMemory();

    /** The counts so far, read from the service's own counters
     *  (memHits = mem tier - inflightDedup, submitted = requests -
     *  mem tier). Counted with or without a registry attached. */
    ServiceCounters counters() const;
    store::ResultStore *store() const { return store_; }

    /**
     * Publish this service's telemetry into `registry`: its own
     * counters, read in place -- per-tier sps_requests_tier_total
     * (tier = mem / disk / compute / error), sps_requests_total and
     * sps_service_inflight_dedup -- plus per-tier
     * sps_request_duration_us, sps_queue_wait_us and
     * sps_sim_duration_us histograms. Conservation: every submit()
     * counts one request and resolves to exactly one tier, so at
     * quiescence requests_total equals the sum of the tier counters
     * and of the per-tier histogram counts. Attach once, at wiring
     * time; the registry must outlive the service's last submit(),
     * and the service must outlive the registry's last snapshot().
     * nullptr detaches the histograms.
     */
    void attachMetrics(obs::MetricsRegistry *registry);

  private:
    struct Job
    {
        EvalPoint pt;
        std::promise<sim::SimResult> promise;
        /** Request span to record stages on (may be null). */
        std::shared_ptr<obs::RequestSpan> span;
        /** When submit() queued the job (monotonic microseconds). */
        uint64_t enqueueUs = 0;
    };

    /** Pre-resolved histogram handles, per-tier ones indexed by
     *  obs::Tier. Published via an atomic pointer so the hot path is
     *  one acquire load plus relaxed bumps. */
    struct Metrics
    {
        obs::Histogram *durationTier[5] = {};
        obs::Histogram *queueWait = nullptr;
        obs::Histogram *simDuration = nullptr;
    };

    /** One worker: pop the oldest job and run it, until stop_ is set
     *  and pending_ is empty. */
    void workerLoop();
    /** Set stop_ and join every started worker (they drain first). */
    void stopWorkers();
    void runJob(Job &job);
    std::string requestKey(const EvalPoint &pt) const;

    store::ResultStore *store_;

    mutable std::mutex mu_;
    /** Wakes one idle worker per submitted job, and all at stop. */
    std::condition_variable wake_;
    /** Set by the destructor; workers drain pending_ before exiting. */
    bool stop_ = false;
    /** Submitted jobs no worker has taken yet, oldest first. */
    std::deque<Job> pending_;
    /** Request key -> entry (in-flight or completed): the memory
     *  tier and the in-flight dedup table in one map. */
    std::unordered_map<std::string, std::shared_ptr<ResultEntry>>
        results_;

    /** The one copy of every count, with or without a registry:
     *  requests, their tier outcomes indexed by obs::Tier, and the
     *  mem-tier requests that joined an in-flight twin. requests_ and
     *  the mem tier move together under mu_ (see counters()). */
    obs::Counter requests_;
    obs::Counter tier_[5];
    obs::Counter inflightDedup_;

    std::unique_ptr<Metrics> metricsStorage_;
    std::atomic<Metrics *> metrics_{nullptr};

    /** Started last and joined by the destructor, so every member
     *  above outlives them. */
    std::vector<std::thread> workers_;
};

} // namespace sps::svc

#endif // SPS_SVC_EVAL_SERVICE_H
