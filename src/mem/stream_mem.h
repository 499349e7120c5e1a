/**
 * @file
 * The streaming memory system: stream loads and stores between
 * external DRAM and the SRF.
 *
 * Transfers carry real word addresses, (base, record stride, record
 * length), and each word is assigned to channel `wordAddr % channels`
 * (word interleaving by address, so stride-aliased streams collapse
 * onto a subset of the channels instead of being credited full
 * aggregate bandwidth). Requests are generated lazily by one cursor
 * per (transfer, channel), started from the transfer's record geometry
 * (derived once per transfer, not per channel): it decodes the first
 * word of each run of consecutive channel-local addresses into (bank,
 * row) once and steps through the rest, so a request inside a run
 * costs a few adds and no division. The geometry also splits the
 * first record's length by the channel count and decodes its start,
 * so a channel's cursor starts with adds and at most one step; no
 * division is per channel. Channel state -- open rows, bank contents,
 * and the per-channel busy cursor -- is owned by the StreamMemSystem
 * and persists across transfers within one program run.
 *
 * Contention is modelled by batched joint service: transfers submitted
 * between two resolve points are interleaved request-by-request into
 * one FR-FCFS access-scheduler window per channel (mem/access_sched.h),
 * so overlapping transfers share bandwidth and fight for row buffers
 * exactly where they overlap. The stream controller submits a transfer
 * at issue and resolves the batch when a dependent op (or the
 * scoreboard) needs a completion time.
 *
 * Service is exact but not one request at a time. While one transfer
 * is the only one ready on a channel, FR-FCFS would pick its requests
 * in arrival order as long as the oldest hits its open row or all the
 * window would hold share its row (mem/access_sched.h). The loop then
 * serves the rest of the cursor's run inside the current row in one
 * step: the first request through DramChannel::service, the others at
 * tCol each, cut short before the next transfer becomes ready. A window
 * left holding one transfer's requests in one row is dropped the same
 * way. Every result, counter and busy interval equals stepwise
 * service, and a transfer alone on a channel costs O(rows), not
 * O(words).
 *
 * The usual channel of a resolve has one transfer's requests and an
 * empty window (once the scoreboard fills, every op issue resolves the
 * one transfer submitted since the last). Its cursor then stays a
 * local and serves its row runs back to back, with no window,
 * ready-scan or round-robin bookkeeping between them, until it is done
 * or a head needs the window; only then are the batch's cursors built
 * and the window loop entered, exactly where stepwise service would
 * need it. The window stays the one place requests are reordered.
 *
 * The batch buffers -- one array of per-transfer entries (geometry,
 * extrapolation factor and totals), one of per-(transfer, channel)
 * totals, the cursors, and the one FR-FCFS window that serves each
 * channel in turn -- are owned by the StreamMemSystem and reset, not
 * reallocated, by every resolve: once they have grown to the largest
 * batch, a batch allocates nothing. A submit adds its TransferDesc to
 * the pending list; only a traced submit also copies its TransferTrace
 * (label included), into a side list.
 *
 * Configured for the paper's 2007 technology point by default: eight
 * channels, 4 words per cycle (16 GB/s at the default 1 GHz clock)
 * and a 55-cycle latency. The peak is the one bandwidth leaf: each
 * channel's column time is derived from it (StreamMemSystem::tCol()).
 */
#ifndef SPS_MEM_STREAM_MEM_H
#define SPS_MEM_STREAM_MEM_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/intervals.h"
#include "mem/access_sched.h"
#include "mem/dram.h"
#include "trace/tracer.h"

namespace sps::mem {

/** Configuration of the streaming memory system. */
struct StreamMemConfig
{
    int channels = 8;
    /** Aggregate peak bandwidth in words per processor cycle. */
    double peakWordsPerCycle = 4.0;
    /** Access latency in cycles (Table 1's T). */
    int latencyCycles = 55;
    /** Per-channel DRAM timing template; the column time is derived
     *  from the peak (StreamMemSystem::tCol()). */
    DramTiming timing = DramTiming{};
    /** FR-FCFS reorder window per channel. */
    int schedWindow = kSchedWindow;
    /** Starvation bound: max times one request may be bypassed. */
    int schedMaxBypass = kSchedMaxBypass;

    /** The paper's 45nm / 2007 configuration: 16 GB/s at 1 GHz. */
    static StreamMemConfig fortyFiveNm() { return StreamMemConfig{}; }
};

template <FieldsOf<StreamMemConfig> S, typename F>
void
forEachField(S &m, F &&f)
{
    f("channels", m.channels);
    f("peak_words_per_cycle", m.peakWordsPerCycle);
    f("latency_cycles", m.latencyCycles);
    f("timing", m.timing);
    f("sched_window", m.schedWindow);
    f("sched_max_bypass", m.schedMaxBypass);
}

/** One stream transfer, as submitted by the stream controller. */
struct TransferDesc
{
    /** Words moved over the external interface. */
    int64_t words = 0;
    /** Word address of the first record. */
    int64_t baseWord = 0;
    /** Start-to-start distance between consecutive records in words;
     *  0 means dense (== recordWords). */
    int64_t strideWords = 0;
    /** Contiguous words per record. */
    int64_t recordWords = 1;
    /** Earliest cycle any request of this transfer may be serviced. */
    int64_t startCycle = 0;
    bool write = false;
};

/** One closed-open interval during which the memory pins were busy,
 *  in the interval library's type so the controller merges and
 *  intersects the recorded set without converting it. */
using BusyInterval = analysis::CycleInterval;

/** Result of one stream transfer. */
struct TransferResult
{
    int64_t startCycle = 0;   ///< requested start (TransferDesc)
    int64_t serviceStart = 0; ///< first cycle pins worked for it
    int64_t doneCycle = 0;    ///< last word serviced + access latency
    int64_t cycles = 0;       ///< doneCycle - startCycle
    int64_t busyCycles = 0;   ///< critical-channel pin cycles
    double wordsPerCycle = 0; ///< achieved bandwidth

    // DRAM behaviour over the whole transfer (summed across channels;
    // extrapolated transfers scale these with round-to-nearest so
    // hits + misses always equals accesses and accesses equals the
    // words moved).
    int64_t dramAccesses = 0;
    int64_t dramRowHits = 0;
    int64_t dramRowMisses = 0;
    /** Row misses that had to precharge an open row first. */
    int64_t bankConflicts = 0;
    /** Sum of access-scheduler reorder distances. */
    int64_t dramReorderSum = 0;
    /** Largest single reorder distance. */
    int64_t dramReorderMax = 0;
    /** Idle channel-cycles caused by address aliasing: channels *
     *  critical-channel busy minus total busy across channels. Zero
     *  for a perfectly balanced transfer. */
    int64_t aliasStallCycles = 0;
};

/** Per-channel counters accumulated over one program run. */
struct ChannelStats
{
    int64_t busyCycles = 0;
    int64_t accesses = 0;
    int64_t rowHits = 0;
    int64_t bankConflicts = 0;
};

/** Optional tracing context for one transfer (see trace/tracer.h). */
struct TransferTrace
{
    trace::Tracer *tracer = nullptr;
    /** Event name (typically the stream op's label). */
    std::string label;
    /** Program-order op id, recorded as the event's async id. */
    int opId = -1;
};

/**
 * Streaming memory system model with persistent channel state.
 *
 * Program-run usage (the stream controller): beginProgram(), then
 * submit() each transfer at issue and resolveAll() when a completion
 * is needed; transfers submitted between resolves are serviced
 * jointly, sharing the per-channel scheduler window.
 *
 * Standalone usage (tests, quick estimates): transfer() services one
 * transfer against freshly reset channels, so results do not depend
 * on call history.
 */
class StreamMemSystem
{
  public:
    /** Throws std::invalid_argument unless channels, schedWindow and
     *  schedMaxBypass are at least 1, peakWordsPerCycle is finite and
     *  positive, latencyCycles, tRas and tPre are not negative, and a
     *  row miss (derived tCol + tPre + tRas) fits an int (a client's
     *  config override reaches here). */
    explicit StreamMemSystem(StreamMemConfig cfg = StreamMemConfig{});
    /** Defined in stream_mem.cpp, where the cursor type is complete. */
    ~StreamMemSystem();

    const StreamMemConfig &config() const { return cfg_; }

    /** Cycles per column access on each channel: channels /
     *  peakWordsPerCycle rounded to the nearest cycle, at least 1, so
     *  that all channels together sustain the peak on row hits. */
    int tCol() const { return tCol_; }

    /** Reset channel state (rows closed, busy cursors and per-channel
     *  counters to zero) for a new program run at cycle 0. */
    void beginProgram();

    /** Make room for `transfers` results, so a program run that
     *  submits no more than that never regrows them. */
    void reserve(size_t transfers);

    /**
     * Submit a transfer for joint service; returns a ticket valid
     * until the next beginProgram(). When `tr` carries a tracer, the
     * resolved transfer records a "mem" event with its DRAM
     * behaviour; `tr` is copied only then, so an untraced submit
     * copies no label. Transfers larger than the simulation cap are
     * extrapolated from a simulated prefix with round-to-nearest
     * scaling (counter identities stay exact).
     */
    int submit(const TransferDesc &desc,
               const TransferTrace *tr = nullptr);

    /** Jointly service all unresolved transfers. */
    void resolveAll();

    /** True once the ticket's transfer has been resolved. */
    bool resolved(int ticket) const;

    /** The resolved result for a ticket (resolves if needed). */
    const TransferResult &result(int ticket);

    /**
     * Append the busy intervals (union over channels, in service order
     * per resolve batch) recorded since the last call to `out`, and
     * forget them. Intervals from different batches may overlap --
     * callers wanting a disjoint set must merge. Both vectors keep
     * their capacity.
     */
    void takeBusyIntervals(std::vector<BusyInterval> &out);

    /** Per-channel counters since beginProgram(). */
    const std::vector<ChannelStats> &channelStats() const
    {
        return chStats_;
    }

    /**
     * Standalone transfer of `words` words with the given word stride
     * (1 = dense), starting from idle channels at cycle 0. Kept for
     * estimates and unit tests; program runs use submit()/resolveAll().
     */
    TransferResult transfer(int64_t words, int64_t stride = 1,
                            const TransferTrace *tr = nullptr);

  private:
    /** A transfer's record walk, split by the channel count, and the
     *  lazy request generator of one (transfer, channel) pair that
     *  starts from it (stream_mem.cpp). */
    struct Geometry;
    class ChannelCursor;

    struct Channel
    {
        DramChannel dram;
        /** First cycle the channel's pins are free. */
        int64_t freeCycle = 0;
    };
    /** A traced submit's trace, by its index in the pending list. */
    struct PendingTrace
    {
        size_t index;
        TransferTrace trace;
    };

    /** One transfer of a batch: its geometry and its simulated totals
     *  over every channel. */
    struct Transfer;
    /** One (transfer, channel) pair's simulated pin time. */
    struct Pair
    {
        int64_t busy = 0;
        /** Cycle its last request ended; -1 before the first. */
        int64_t lastEnd = -1;
        /** lastEnd moved by the extrapolation stretch (capped batches
         *  only). */
        int64_t done = -1;
    };
    /** An extrapolated (transfer, channel) pair's extra pin time. */
    struct Stretch
    {
        size_t tc;
        int64_t lastEnd;
        int64_t extra;
    };
    /**
     * resolveAll's buffers. Every batch rebuilds `xfer` (indexed t) and
     * resets `pair` (indexed t * channels + c); a channel that needs
     * the window refills `cur`, and every channel of a capped batch
     * refills `stretch`. The vectors keep their capacity from batch to
     * batch.
     */
    struct Batch
    {
        std::vector<Transfer> xfer;
        std::vector<Pair> pair;
        std::vector<ChannelCursor> cur;
        std::vector<Stretch> stretch;
    };

    /** One channel's service within a batch: its clock, the busy
     *  run being served and its live cursors. */
    struct ChannelRun
    {
        int c;
        int64_t now;
        /** Start of the current busy run; -1 while idle. */
        int64_t runStart;
        /** Cursors with requests left. */
        size_t live;
    };

    /** Serve channel c's requests of the batch from its free cycle
     *  on, one of resolveAll's steps. */
    void serveChannel(int c);
    /** Serve cursor q, transfer t's and the only one live on channel
     *  run.c, once the window is empty. */
    void serveAlone(ChannelRun &run, size_t t, ChannelCursor &q);
    /** Admit and serve channel run.c's requests through the FR-FCFS
     *  window until it is empty with at most one cursor live. */
    void serveWindow(ChannelRun &run);
    /** Account `n` requests of transfer t served back to back from
     *  run.now, taking `cycles` in all. */
    void charge(ChannelRun &run, size_t t, int64_t cycles, int64_t n,
                int64_t hits, int64_t conflicts, int64_t pick);
    /** End the channel's busy run at run.now, recording its interval. */
    void closeRun(ChannelRun &run);
    /** Shift channel c's later service by the extra pin time of the
     *  batch's capped transfers (a capped batch only). */
    void stretchChannel(int c);

    StreamMemConfig cfg_;
    int tCol_;
    /** cfg_.channels, for splitting addresses. */
    Divisor channels_;
    std::vector<Channel> ch_;
    std::vector<ChannelStats> chStats_;
    /** Unresolved transfers, in submit order: they hold the last
     *  pending_.size() tickets. */
    std::vector<TransferDesc> pending_;
    /** The traced ones among them; empty when nothing is traced. */
    std::vector<PendingTrace> traces_;
    std::vector<TransferResult> results_;
    std::vector<BusyInterval> busyIvs_;
    /** Serves each channel of a batch in turn; empty between them. */
    AccessWindow window_;
    Batch batch_;
};

} // namespace sps::mem

#endif // SPS_MEM_STREAM_MEM_H
