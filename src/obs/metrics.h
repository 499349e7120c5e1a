/**
 * @file
 * Service-layer telemetry: a low-overhead registry of named metrics
 * for the long-lived serving stack (svc::EvalServer / EvalService /
 * store::ResultStore / sched::ScheduleCache). Where trace::Tracer and
 * sim::SimCounters observe the *simulated machine*, this registry
 * observes the *daemon itself* while it serves traffic.
 *
 * Three metric kinds:
 *  - Counter:   monotonically increasing u64 (requests, hits, errors),
 *               always owned by the component that counts and exposed
 *               to the registry, which reads that same object at
 *               snapshot time -- so a count the store, schedule cache,
 *               service, or server keeps has exactly one home and
 *               costs nothing extra to scrape;
 *  - Gauge:     last-write-wins i64 (active connections, queue depth);
 *  - Histogram: log2-bucketed latency/size distribution with exact
 *               count and sum, and p50/p95/p99 extraction from the
 *               bucket boundaries.
 *
 * Cost model: the hot path is one relaxed atomic fetch_add (Counter)
 * or store (Gauge), or three fetch_adds (Histogram), on a
 * pre-resolved handle -- registration resolves the name once,
 * recording never touches the registry lock, a map, or a string.
 * snapshot() is the only reader and pays the whole cost of
 * consistency: it copies every metric under the registration lock.
 *
 * Because recording is lock-free, a snapshot taken under concurrent
 * load is a *near-point-in-time* view: each individual atomic is read
 * once, so per-metric values are exact, and cross-metric invariants
 * that hold monotonically (e.g. requests_total >= sum of per-tier
 * outcomes, histogram count >= bucket total) hold in every snapshot;
 * exact conservation holds in any quiescent snapshot.
 *
 * Exposition: renderPrometheus() emits the Prometheus text format
 * (counters/gauges as plain samples, histograms as cumulative
 * `_bucket{le=...}` series plus `_sum`/`_count`); renderJson() emits
 * one self-describing JSON object. Both render from the same
 * MetricsSnapshot, so a scrape is internally consistent across
 * formats.
 */
#ifndef SPS_OBS_METRICS_H
#define SPS_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sps::obs {

/** Monotonic counter. Its owner publishes it with
 *  MetricsRegistry::expose(). */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

    /** Back to zero: only for an owner whose own contract resets its
     *  counts (ScheduleCache::clear()); a scrape sees the drop. */
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-write-wins gauge (signed: depths and deltas may dip). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }

    void
    add(int64_t n)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * Log2-bucketed histogram over non-negative integer observations
 * (canonically microseconds). Bucket i counts observations v with
 * upperBound(i-1) < v <= upperBound(i), where upperBound(i) =
 * 2^(i+1) - 2 for i < kBuckets-1 (bucket 0 is exactly {0}) and +inf
 * for the last bucket; count and sum are exact. observe() is three
 * fetch_adds: count and sum first, the bucket last with release, so a
 * snapshot that acquire-loads a bucket also sees the count that
 * observation added (bucket total <= count in every snapshot).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 40;

    void
    observe(uint64_t v)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        buckets_[bucketIndex(v)].fetch_add(1,
                                           std::memory_order_release);
    }

    /** Index of the bucket v falls into: floor(log2(v+1)) capped. */
    static int
    bucketIndex(uint64_t v)
    {
        if (v == UINT64_MAX)
            return kBuckets - 1; // v+1 would make clzll(0) UB
        int bit = 64 - __builtin_clzll(v + 1) - 1; // v+1 >= 1
        return bit < kBuckets - 1 ? bit : kBuckets - 1;
    }

    /** Inclusive upper bound of bucket i (UINT64_MAX on the last):
     *  the largest v with bucketIndex(v) == i, which is what the
     *  Prometheus `le` contract requires of a bucket boundary. */
    static uint64_t
    upperBound(int i)
    {
        if (i >= kBuckets - 1)
            return UINT64_MAX;
        return (uint64_t(1) << (i + 1)) - 2;
    }

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    friend class MetricsRegistry;
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
};

/** What a snapshot entry describes. */
enum class MetricKind : uint32_t {
    Counter = 1,
    Gauge = 2,
    Histogram = 3,
};

/** One metric frozen at snapshot time. */
struct MetricSample
{
    std::string name;   ///< Prometheus-legal metric name
    std::string labels; ///< preformatted `key="value",...` or empty
    std::string help;   ///< one-line description
    MetricKind kind = MetricKind::Counter;
    /** Counter/Gauge value (counters nonnegative by construction). */
    int64_t value = 0;
    /** Histogram per-bucket counts (size kBuckets) -- empty for
     *  counters/gauges. */
    std::vector<uint64_t> buckets;
    uint64_t count = 0; ///< histogram observation count
    uint64_t sum = 0;   ///< histogram observation sum

    /**
     * Smallest bucket upper bound covering quantile q in [0,1] --
     * e.g. quantile(0.99) -- computed by rank walk over the bucket
     * counts. 0 when the histogram is empty. Log-bucketed, so the
     * value is the bucket ceiling (within 2x of the true quantile).
     */
    uint64_t quantile(double q) const;
};

/** A point-in-time copy of every registered metric. */
struct MetricsSnapshot
{
    std::vector<MetricSample> metrics;

    /** First metric matching (name, labels), or nullptr. */
    const MetricSample *find(const std::string &name,
                             const std::string &labels = "") const;
    /** Counter/gauge value of (name, labels), or 0 when absent. */
    int64_t value(const std::string &name,
                  const std::string &labels = "") const;
};

/**
 * Registry of named metrics. gauge()/histogram() register on first
 * use and return the existing handle on repeated calls with the same
 * (name, labels) -- handles are stable for the registry's lifetime.
 * expose() registers a counter some component owns.
 * Registration takes a mutex; recording through a handle never does.
 * A snapshot reads metrics in registration order.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Gauge *gauge(const std::string &name,
                 const std::string &labels = "",
                 const std::string &help = "");
    Histogram *histogram(const std::string &name,
                         const std::string &labels = "",
                         const std::string &help = "");

    /**
     * Publish a counter owned by the caller under (name, labels): a
     * snapshot reads `c` in place, so the owner keeps its one copy of
     * the count. Exposing the same
     * counter again is a no-op; any other clash panics. `c` must
     * outlive the registry's last snapshot().
     */
    void expose(const std::string &name, const std::string &labels,
                const std::string &help, const Counter *c);

    /** Point-in-time copy of every metric, in registration order. */
    MetricsSnapshot snapshot() const;

    size_t size() const;

  private:
    struct Entry
    {
        std::string name;
        std::string labels;
        std::string help;
        MetricKind kind;
        /** The exposed counter a snapshot reads. */
        const Counter *c = nullptr;
        std::unique_ptr<Gauge> g;
        std::unique_ptr<Histogram> h;
    };

    Entry *findOrNull(const std::string &name,
                      const std::string &labels, MetricKind kind);
    Entry *add(const std::string &name, const std::string &labels,
               const std::string &help, MetricKind kind);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Entry>> entries_;
};

/** Render a snapshot in the Prometheus text exposition format. */
std::string renderPrometheus(const MetricsSnapshot &snap);

/** Render a snapshot as a JSON object keyed by metric name. */
std::string renderJson(const MetricsSnapshot &snap);

/** One `name{labels} value` line per counter of a snapshot, in
 *  snapshot order: the compact counter report of the bench mains and
 *  the daemon's shutdown log. */
std::vector<std::string> counterLines(const MetricsSnapshot &snap);

/** Monotonic now() in microseconds (steady clock), the canonical
 *  unit for every duration histogram in this subsystem. */
uint64_t monotonicMicros();

} // namespace sps::obs

#endif // SPS_OBS_METRICS_H
