/**
 * @file
 * The shared, memoized schedule cache: compileKernel() results keyed by
 * (kernel fingerprint, machine configuration hash).
 * Every design-space sweep in the evaluation stack revisits the same
 * (kernel, machine) pairs -- across figures, benches, repeated grid
 * points, and the simulator's per-invocation compiles -- so a kernel
 * compiled once for a given MachineSize / FU mix is never recompiled.
 *
 * With a store::ResultStore attached (attachStore), this cache is the
 * *memory tier* of a three-tier lookup: memory -> disk -> compile. A
 * memory miss first consults the disk store (a verified entry decodes
 * without compiling and counts as a diskHit); a computed schedule is
 * written back so every later process pointed at the same store
 * directory starts warm.
 *
 * Compiling has a per-kernel tier under the schedules: the first
 * compile of a kernel builds its KernelPlan (the census, and each
 * unroll factor's body and dependence skeleton) once, keyed by the
 * kernel fingerprint, and every machine compiles from it. A cold
 * figure suite thus unrolls and builds skeletons once per distinct
 * kernel, not once per (kernel, machine). The plans live until
 * clear(), which frees them: a compile in flight holds its plan
 * through a shared_ptr.
 *
 * Thread safety: get() may be called concurrently from any number of
 * threads; a given key is compiled exactly once (concurrent requests
 * for the same key block on the winner), and a given kernel is
 * planned exactly once per clear(). Returned references stay
 * valid for the cache's whole lifetime: clear() swaps the live map
 * out under the lock and retires it instead of destroying entries, so
 * it never invalidates in-flight get() calls or references obtained
 * before the clear (retired entries are only freed when the cache
 * itself is destroyed).
 */
#ifndef SPS_SCHED_SCHEDULE_CACHE_H
#define SPS_SCHED_SCHEDULE_CACHE_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sched/kernel_perf.h"

namespace sps::store {
class ResultStore;
}

namespace sps::sched {

/**
 * FNV-1a hash of every machine property the scheduler can observe:
 * C, N, the per-class unit counts, the extra intracluster pipeline
 * stages, and the COMM latency. Two MachineModels with equal hashes
 * schedule any kernel identically (opcode timings derive from these
 * plus static base timings).
 */
uint64_t machineConfigHash(const MachineModel &m);

/** The cache's kernel key: kernel::fingerprint (kernel/fingerprint.h). */
uint64_t kernelFingerprint(const kernel::Kernel &k);

/** Hash of the compile constants that shape the schedule
 *  (kUnrollFactors, kMaxUnrolledOps): the options word of every
 *  schedule's store key. */
uint64_t compileOptionsHash();

class ScheduleCache
{
  public:
    struct Counters
    {
        /** Calls served from the in-memory map (including waiters on
         *  a concurrent winner). */
        uint64_t hits = 0;
        /** Calls that actually compiled (the true compile count). */
        uint64_t misses = 0;
        /** Calls served by decoding an attached disk store's entry
         *  (no compilation performed). */
        uint64_t diskHits = 0;
    };

    /**
     * The compiled schedule for (k, m), compiling on first use.
     * A call that performs the compilation counts as a miss; a call
     * whose entry was decoded from the attached store counts as a
     * diskHit; every other call (including ones that waited on a
     * concurrent winner) counts as a hit. A compile that throws
     * (compileKernel refuses a kernel the machine cannot execute)
     * counts nothing: the entry keeps the exception and every lookup
     * of the key rethrows it.
     */
    const CompiledKernel &get(const kernel::Kernel &k,
                              const MachineModel &m);

    /**
     * Attach (or detach, with nullptr) the persistent disk tier. The
     * store must outlive the cache or a later attachStore(nullptr).
     * Safe to call concurrently with get(); in-flight lookups keep
     * using the pointer they sampled.
     */
    void attachStore(store::ResultStore *s);

    /**
     * Publish this cache's telemetry into `registry`: a compile
     * duration histogram (observed on every true compile from then
     * on) and the cache's own hit / disk-hit / compile counters,
     * which a snapshot reads in place. Same lifetime contract as
     * ResultStore::attachMetrics; nullptr detaches the histogram.
     */
    void attachMetrics(obs::MetricsRegistry *registry);

    /** The counts since construction or the last clear(). */
    Counters counters() const;
    size_t size() const;

    /**
     * Forget all entries and plans and reset the counters.
     * Concurrency-safe: the map is swapped out under the lock and
     * retired rather than destroyed, so in-flight get() calls and
     * previously returned references stay valid; retired entries are
     * freed only when the cache is destroyed. The plans are freed
     * (compiles in flight keep theirs alive until they finish). The
     * attached store (if any) is unaffected, so a clear() followed by
     * get() re-hits the disk tier.
     */
    void clear();

    /** The process-wide cache shared by designs, sims, and engines. */
    static ScheduleCache &global();

  private:
    struct Key
    {
        uint64_t kernelHash = 0;
        uint64_t machineHash = 0;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        size_t operator()(const Key &k) const
        {
            uint64_t h = k.kernelHash;
            h ^= k.machineHash + 0x9e3779b97f4a7c15ull + (h << 6) +
                 (h >> 2);
            return static_cast<size_t>(h);
        }
    };
    struct Entry
    {
        std::once_flag once;
        CompiledKernel ck;
        /** A refused compile. Kept rather than thrown through
         *  call_once: ThreadSanitizer's pthread_once never releases a
         *  flag whose callable threw, so a second lookup would hang. */
        std::exception_ptr error;
    };
    using Map = std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash>;
    /** One kernel's plan, built once; a failure is kept as in Entry. */
    struct PlanEntry
    {
        std::once_flag once;
        KernelPlan plan;
        std::exception_ptr error;
    };
    using PlanMap =
        std::unordered_map<uint64_t, std::shared_ptr<PlanEntry>>;

    /** k's plan (k's fingerprint is kernel_hash), planned on first
     *  use; rethrows a failed planning. */
    std::shared_ptr<const PlanEntry> planFor(const kernel::Kernel &k,
                                             uint64_t kernel_hash);

    mutable std::mutex mu_;
    Map map_;
    /** Plans by kernel fingerprint, until the next clear(). */
    PlanMap plans_;
    /** Maps swapped out by clear(): keeps retired entries (and thus
     *  outstanding references) alive until the cache is destroyed. */
    std::vector<Map> retired_;
    /** Optional persistent tier (guarded by mu_ for pointer access). */
    store::ResultStore *store_ = nullptr;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter diskHits_;
    /** Compile-duration histogram (null until attachMetrics). */
    std::atomic<obs::Histogram *> compileUs_{nullptr};
};

} // namespace sps::sched

#endif // SPS_SCHED_SCHEDULE_CACHE_H
