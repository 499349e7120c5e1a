/**
 * @file
 * Disk-backed content-addressed result store: the persistent tier of
 * the evaluation stack. Entries are keyed by content hashes -- a
 * compiled schedule by (kernel::fingerprint, machineConfigHash,
 * compileOptionsHash), a simulation result by (programFingerprint,
 * machineConfigHash, simConfigHash) -- so any process pointed at the
 * same directory shares one warm cache across runs.
 *
 * Durability/atomicity contract:
 *  - put() writes to a process-unique temp file in the same directory
 *    and atomically renames it into place, so readers (including
 *    concurrent reader *processes*) only ever observe absent or
 *    complete entries, and concurrent writers of the same key are
 *    harmless (last rename wins; same content either way).
 *  - Every entry carries a magic, the store schema version, its kind,
 *    the payload length, and a headerChecksum (store/codec.h) over
 *    those header bytes and the payload. get() verifies all of them;
 *    a truncated, bit-flipped, mis-kinded, or version-mismatched
 *    entry is treated as a miss (counted in `corrupt`), never decoded
 *    into a wrong result.
 *
 * Thread safety: get()/put() may be called concurrently from any
 * number of threads (and processes); counters are obs::Counters.
 *
 * Eviction/GC: a nonzero byte budget turns the store into a bounded
 * LRU cache. Every put() that leaves the entry files over budget
 * sweeps the least-recently-used entries (get() refreshes an entry's
 * file time on every verified hit, so recency is access recency, not
 * write recency) until the directory fits again; reapOrphanTemps()
 * removes `.tmp.*` files abandoned by crashed writers once they are
 * old enough that no live writer can still own them. A get() racing
 * an eviction stays miss-or-truth: the reader either opened the file
 * before the unlink (and serves the verified entry) or misses.
 */
#ifndef SPS_STORE_RESULT_STORE_H
#define SPS_STORE_RESULT_STORE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/codec.h"

namespace sps::store {

/** What a stored payload decodes to (part of the entry key/path). */
enum class Kind : uint32_t {
    Schedule = 1,  ///< sched::CompiledKernel
    SimResult = 2, ///< sim::SimResult
};

/** Content-addressed entry key: kind plus three content hashes. */
struct Key
{
    Kind kind = Kind::Schedule;
    /** Schedule: kernel fingerprint. Sim: program fingerprint. */
    uint64_t content = 0;
    /** Machine configuration hash (sched::machineConfigHash). */
    uint64_t machine = 0;
    /** Schedule: compile-options hash. Sim: sim-config hash. */
    uint64_t options = 0;
};

/** Monotonic counters of one store instance. */
struct StoreCounters
{
    uint64_t hits = 0;    ///< complete, verified entries served
    uint64_t misses = 0;  ///< absent entries
    uint64_t corrupt = 0; ///< damaged/version-mismatched entries
    uint64_t writes = 0;  ///< entries durably renamed into place
    uint64_t writeErrors = 0;
    uint64_t evicted = 0;        ///< entries removed by the LRU sweep
    uint64_t reclaimedBytes = 0; ///< bytes freed by sweeps + reaps
};

class ResultStore
{
  public:
    /** Open (creating directories as needed) a store rooted at
     *  `root`. An empty/uncreatable root makes every get a miss and
     *  every put a write error rather than an exception.
     *  maxCacheBytes == 0 means unbounded; a nonzero budget caps the
     *  total entry bytes on disk, enforced by an LRU sweep after
     *  every put that crosses the budget. */
    explicit ResultStore(std::string root, uint64_t maxCacheBytes = 0);

    const std::string &root() const { return root_; }
    uint64_t maxCacheBytes() const { return maxCacheBytes_; }

    /**
     * Fetch the verified payload of `key` into `payload`. False on
     * absent (miss) or damaged (corrupt counter) entries; true only
     * when magic, version, kind, length, and checksum all verified.
     */
    bool get(const Key &key, std::vector<uint8_t> *payload);

    /** Durably store `payload` under `key` (temp + atomic rename). */
    bool put(const Key &key, const std::vector<uint8_t> &payload);

    // --- Typed wrappers over the codecs. ---

    bool loadSchedule(const Key &key, sched::CompiledKernel *out);
    bool storeSchedule(const Key &key, const sched::CompiledKernel &ck);
    bool loadSimResult(const Key &key, sim::SimResult *out);
    bool storeSimResult(const Key &key, const sim::SimResult &res);

    StoreCounters counters() const;

    /**
     * Publish this store's telemetry into `registry`: get/put latency
     * histograms (observed on every call from then on) and the
     * store's own counters behind StoreCounters, which a snapshot
     * reads in place. Attach once, at wiring time, before concurrent
     * traffic; the registry must outlive the store's last get()/put(),
     * and this store must outlive the registry's last snapshot().
     * nullptr detaches the histograms (the counters stay exposed).
     */
    void attachMetrics(obs::MetricsRegistry *registry);

    /** Entry file path of a key (exposed for corruption tests). */
    std::string entryPath(const Key &key) const;

    /** Total bytes of completed entry files (temps excluded). */
    uint64_t totalEntryBytes() const;

    /**
     * Evict least-recently-used entries until the store fits the byte
     * budget (no-op when unbounded or already under budget). put()
     * calls this automatically; exposed for tests and for sweeping a
     * directory that grew under a different (or no) budget. Returns
     * bytes reclaimed.
     */
    uint64_t sweepToBudget();

    /**
     * Remove `.tmp.*` files older than `minAge` seconds -- the debris
     * of writers that died between temp write and rename. The age
     * threshold is what keeps live writers safe: a temp file younger
     * than minAge may still be in flight and is never touched.
     * Returns the number of files reaped.
     */
    uint64_t reapOrphanTemps(uint64_t minAgeSeconds);

  private:
    std::string root_;
    uint64_t maxCacheBytes_ = 0;
    std::mutex sweepMu_; ///< one sweep/reap at a time
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter corrupt_;
    obs::Counter writes_;
    obs::Counter writeErrors_;
    obs::Counter evicted_;
    obs::Counter reclaimedBytes_;
    std::atomic<uint64_t> tempSeq_{0};

    /** A verified entry's payload, timed into the get histograms;
     *  counts misses and corrupt entries but leaves the hit to the
     *  caller, which may still reject the payload. */
    bool fetch(const Key &key, std::vector<uint8_t> *payload);
    bool get_(const Key &key, std::vector<uint8_t> *payload);
    bool put_(const Key &key, const std::vector<uint8_t> &payload);
    /** Count a fetched payload as a hit when it decoded, as corrupt
     *  otherwise; returns `decoded`. */
    bool countDecode(bool decoded);

    /** Latency histograms (null until attachMetrics): get is split by
     *  result so a cold directory's misses don't skew hit latency. */
    std::atomic<obs::Histogram *> getHitUs_{nullptr};
    std::atomic<obs::Histogram *> getMissUs_{nullptr};
    std::atomic<obs::Histogram *> putUs_{nullptr};
};

} // namespace sps::store

#endif // SPS_STORE_RESULT_STORE_H
