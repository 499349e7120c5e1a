#include "mem/stream_mem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/log.h"

namespace sps::mem {

namespace {
/** Words beyond which a transfer is extrapolated from a prefix. */
constexpr int64_t kSimCap = 8192;

/** "Never": no cycle, or no service yet. */
constexpr int64_t kFar = std::numeric_limits<int64_t>::max();

/** Round-to-nearest scaling used by the extrapolation path. A factor
 *  of 1 (a transfer within the cap) returns the count as it is, which
 *  the rounding would too: every count is far below 2^53. */
int64_t
scaleCount(int64_t sim_value, double factor)
{
    if (factor == 1.0)
        return sim_value;
    return std::llround(static_cast<double>(sim_value) * factor);
}

/**
 * The column time derived from `cfg`'s peak, once every leaf a
 * client's override can reach has been checked: a bad value is an
 * exception the evaluation service returns as an error, not an abort.
 * Each check is written so that NaN fails it.
 */
int
checkedTCol(const StreamMemConfig &cfg)
{
    if (!(cfg.channels >= 1))
        throw std::invalid_argument(
            "bad memory config: need at least one channel, got " +
            std::to_string(cfg.channels));
    if (!(std::isfinite(cfg.peakWordsPerCycle) &&
          cfg.peakWordsPerCycle > 0))
        throw std::invalid_argument(
            "bad memory config: peak bandwidth must be finite and "
            "positive, got " +
            std::to_string(cfg.peakWordsPerCycle));
    if (!(cfg.schedWindow >= 1 && cfg.schedMaxBypass >= 1))
        throw std::invalid_argument(
            "bad memory config: scheduler window " +
            std::to_string(cfg.schedWindow) + " and bypass cap " +
            std::to_string(cfg.schedMaxBypass) +
            " must both be at least 1");
    if (!(cfg.latencyCycles >= 0 && cfg.timing.tRas >= 0 &&
          cfg.timing.tPre >= 0))
        throw std::invalid_argument(
            "bad memory config: latency " +
            std::to_string(cfg.latencyCycles) + ", tRas " +
            std::to_string(cfg.timing.tRas) + " and tPre " +
            std::to_string(cfg.timing.tPre) +
            " must not be negative");
    // Column access time so that all channels together sustain the
    // configured aggregate peak on row hits. A row miss, the costliest
    // access, must still be an int number of cycles.
    constexpr int kMaxCycles = std::numeric_limits<int>::max();
    double tcol = cfg.channels / cfg.peakWordsPerCycle + 0.5;
    if (!(tcol + cfg.timing.tPre + cfg.timing.tRas < kMaxCycles))
        throw std::invalid_argument(
            "bad memory config: peak bandwidth " +
            std::to_string(cfg.peakWordsPerCycle) + ", tRas " +
            std::to_string(cfg.timing.tRas) + " and tPre " +
            std::to_string(cfg.timing.tPre) +
            " make a row miss longer than " +
            std::to_string(kMaxCycles) + " cycles");
    return std::max(1, static_cast<int>(tcol));
}
} // namespace

/**
 * A transfer's simulated prefix as a walk over records, with the base
 * address and the stride split into quotient and residue by the
 * channel count. The first record's length is split the same way and
 * its start decoded, so a channel's cursor starts on the first record
 * with adds and at most one step. It depends on the transfer alone,
 * so a batch derives it once per transfer, for all channels.
 */
struct StreamMemSystem::Geometry
{
    Geometry(const TransferDesc &d, int64_t sim_words,
             const Divisor &channels, const DramChannel &dram)
        : chans(channels)
    {
        int64_t rec = std::max<int64_t>(1, d.recordWords);
        int64_t stride = d.strideWords > 0 ? d.strideWords : rec;
        if (stride == rec)
            rec = std::max<int64_t>(1, sim_words);
        recWords = rec;
        recs = rec == sim_words ? 1 : (sim_words + rec - 1) / rec;
        lastWords = sim_words - (recs - 1) * rec;
        startQ = chans.quot(d.baseWord);
        startR = static_cast<int>(chans.rem(d.baseWord));
        strideQ = chans.quot(stride);
        strideR = static_cast<int>(chans.rem(stride));
        if (recs == 0)
            return;
        int64_t first = recs == 1 ? lastWords : recWords;
        firstQ = chans.quot(first);
        firstR = static_cast<int>(chans.rem(first));
        startAt = dram.decode(startQ);
        wrapAt = startAt;
        dram.step(wrapAt);
    }

    /** The channel count the addresses are split by. */
    Divisor chans;

    /** Words per record (the whole prefix when dense). */
    int64_t recWords = 0;
    /** Records in the prefix. */
    int64_t recs = 0;
    /** Words in the final, possibly partial, record. */
    int64_t lastWords = 0;
    /** First record's start address, and the stride: quotient and
     *  residue by the channel count. */
    int64_t startQ = 0;
    int startR = 0;
    int64_t strideQ = 0;
    int strideR = 0;
    /** First record's length: quotient and residue by the channel
     *  count. */
    int64_t firstQ = 0;
    int firstR = 0;
    /** Channel-local address startQ decoded, for the channels at or
     *  after startR, and the address after it, for those before. */
    DramAddr startAt;
    DramAddr wrapAt;
};

/** One transfer of a batch: geometry, extrapolation factor and the
 *  totals its requests accumulate over all channels. */
struct StreamMemSystem::Transfer
{
    Transfer(const TransferDesc &d, int64_t sim_words,
             const Divisor &channels, const DramChannel &dram)
        : geom(d, sim_words, channels, dram),
          factor(sim_words > 0 ? static_cast<double>(d.words) /
                                     static_cast<double>(sim_words)
                               : 1.0)
    {
    }

    Geometry geom;
    double factor;
    int64_t svcStart = kFar;
    int64_t hits = 0;
    int64_t conflicts = 0;
    int64_t reorderSum = 0;
    int64_t reorderMax = 0;
};

/** Requests served back to back in arrival order: their pin time,
 *  count, row hits and bank conflicts. */
struct InOrderRun
{
    int64_t cycles = 0;
    int64_t n = 0;
    int64_t hits = 0;
    int64_t conflicts = 0;
};

/**
 * Lazy address generator for one (transfer, channel) pair: yields, in
 * transfer order, the DRAM coordinates of the transfer's simulated
 * words that live on the channel (word address mod channels).
 *
 * A record's words on one channel sit `channels` apart, so their
 * channel-local addresses are consecutive: the cursor decodes the
 * first word of each such run once and steps through the rest. On the
 * first record it decodes nothing: the geometry holds the count and
 * the start for every channel. Record starts advance by the
 * geometry's quotient and residue of the stride, so moving to the next
 * record divides nothing either, and skipping a record with no word on
 * the channel costs a few adds. A dense transfer is one record, hence
 * one run per channel.
 */
class StreamMemSystem::ChannelCursor
{
  public:
    ChannelCursor(const Geometry &g, int channel, const DramChannel &dram)
        : dram_(&dram), g_(&g), channel_(channel), recsLeft_(g.recs),
          startQ_(g.startQ), startR_(g.startR)
    {
        if (recsLeft_ == 0)
            return;
        int off = channel - startR_;
        if (off < 0)
            off += static_cast<int>(g.chans.value());
        left_ = g.firstQ + (off < g.firstR ? 1 : 0);
        if (left_ > 0) {
            at_ = channel < startR_ ? g.wrapAt : g.startAt;
        } else {
            nextRecord();
            seek();
        }
    }

    bool done() const { return left_ == 0; }

    /** The current request; the cursor must not be done. */
    const DramAddr &addr() const { return at_; }

    /** Requests from the current one to the end of its run or of its
     *  row, whichever comes first: consecutive words of one row. */
    int64_t rowRun() const
    {
        return std::min<int64_t>(left_,
                                 dram_->timing().rowWords - at_.col);
    }

    /** True if the next `n` requests, or all that remain when fewer,
     *  lie in the current request's row. */
    bool rowHolds(int64_t n) const
    {
        int64_t run = rowRun();
        return run >= n || (run == left_ && recsLeft_ == 1);
    }

    /**
     * Serve this cursor's requests on `dram` a row run at a time while
     * FR-FCFS would pick them in arrival order, that is while the head
     * hits its open row or all that a window of `window` requests would
     * hold lie in its row; stop once the cursor is done or at the
     * first head that needs the window. The caller has made sure no
     * other transfer's request competes meanwhile.
     */
    InOrderRun serveInOrder(DramChannel &dram, int64_t window, int t_col)
    {
        InOrderRun run;
        const int row_words = dram.timing().rowWords;
        // In locals, so the row buffer's stores do not force reloads.
        DramAddr at = at_;
        int64_t left = left_;
        for (;;) {
            int64_t k = std::min<int64_t>(left, row_words - at.col);
            bool hit = dram.isRowHit(at);
            if (!hit && k < window && !(k == left && recsLeft_ == 1))
                break;
            run.conflicts += !hit && dram.isBankOpen(at) ? 1 : 0;
            run.cycles += dram.service(at) + (k - 1) * t_col;
            run.hits += hit ? k : k - 1;
            run.n += k;
            left -= k;
            if (left > 0) {
                at.col += static_cast<int>(k - 1);
                dram.step(at);
                continue;
            }
            if (recsLeft_ == 1) {
                // The last record's run: done, with no record to seek.
                recsLeft_ = 0;
                left_ = 0;
                return run;
            }
            nextRecord();
            seek();
            if (done())
                return run;
            at = at_;
            left = left_;
        }
        at_ = at;
        left_ = left;
        return run;
    }

    /** Move past `n` requests, 1 <= n <= rowRun(). */
    void skip(int64_t n)
    {
        left_ -= n;
        if (left_ > 0) {
            at_.col += static_cast<int>(n - 1);
            dram_->step(at_);
        } else {
            nextRecord();
            seek();
        }
    }

  private:
    void nextRecord()
    {
        const int channels = static_cast<int>(g_->chans.value());
        --recsLeft_;
        startQ_ += g_->strideQ;
        startR_ += g_->strideR;
        if (startR_ >= channels) {
            startR_ -= channels;
            ++startQ_;
        }
    }

    /** Position on the first run, from the current record on, that
     *  has a word on this channel; done when there is none. */
    void seek()
    {
        const int channels = static_cast<int>(g_->chans.value());
        for (; recsLeft_ > 0; nextRecord()) {
            int64_t len = recsLeft_ == 1 ? g_->lastWords : g_->recWords;
            int off = channel_ - startR_;
            if (off < 0)
                off += channels;
            if (off < len) {
                left_ = g_->chans.quot(len - off - 1) + 1;
                at_ = dram_->decode(startQ_ +
                                    (startR_ + off >= channels ? 1 : 0));
                return;
            }
        }
        left_ = 0;
    }

    const DramChannel *dram_;
    const Geometry *g_;
    int channel_;
    /** The record walk, advanced in place: records not yet passed
     *  (the current one included) and the current record's start. */
    int64_t recsLeft_;
    int64_t startQ_;
    int startR_;
    /** This channel's words left in the current run; 0 when done. */
    int64_t left_ = 0;
    DramAddr at_;
};

StreamMemSystem::StreamMemSystem(StreamMemConfig cfg)
    : cfg_(cfg), tCol_(checkedTCol(cfg_)), channels_(cfg_.channels),
      window_(cfg_.schedWindow, cfg_.schedMaxBypass)
{
    beginProgram();
}

StreamMemSystem::~StreamMemSystem() = default;

void
StreamMemSystem::beginProgram()
{
    SPS_ASSERT(pending_.empty(),
               "beginProgram with unresolved transfers");
    ch_.clear();
    chStats_.clear();
    for (int c = 0; c < cfg_.channels; ++c) {
        ch_.push_back(Channel{DramChannel(cfg_.timing, tCol_), 0});
        chStats_.push_back(ChannelStats{});
    }
    results_.clear();
    busyIvs_.clear();
}

void
StreamMemSystem::reserve(size_t transfers)
{
    results_.reserve(transfers);
}

int
StreamMemSystem::submit(const TransferDesc &desc,
                        const TransferTrace *tr)
{
    SPS_ASSERT(desc.words >= 0, "bad transfer size %lld",
               static_cast<long long>(desc.words));
    SPS_ASSERT(desc.baseWord >= 0 && desc.recordWords >= 1 &&
                   desc.strideWords >= 0,
               "bad transfer addressing (base %lld stride %lld rec %lld)",
               static_cast<long long>(desc.baseWord),
               static_cast<long long>(desc.strideWords),
               static_cast<long long>(desc.recordWords));
    int ticket = static_cast<int>(results_.size());
    results_.emplace_back().startCycle = desc.startCycle;
    if (tr != nullptr && SPS_TRACE_ENABLED(tr->tracer))
        traces_.push_back(PendingTrace{pending_.size(), *tr});
    pending_.push_back(desc);
    return ticket;
}

bool
StreamMemSystem::resolved(int ticket) const
{
    return ticket >= 0 &&
           static_cast<size_t>(ticket) < results_.size() - pending_.size();
}

const TransferResult &
StreamMemSystem::result(int ticket)
{
    if (!resolved(ticket))
        resolveAll();
    SPS_ASSERT(ticket >= 0 &&
                   ticket < static_cast<int>(results_.size()),
               "bad transfer ticket %d", ticket);
    return results_[static_cast<size_t>(ticket)];
}

void
StreamMemSystem::takeBusyIntervals(std::vector<BusyInterval> &out)
{
    out.insert(out.end(), busyIvs_.begin(), busyIvs_.end());
    busyIvs_.clear();
}

void
StreamMemSystem::resolveAll()
{
    if (pending_.empty())
        return;
    const int C = cfg_.channels;
    const size_t nt = pending_.size();
    const size_t first_ticket = results_.size() - nt;

    // The batch buffers keep their capacity from earlier batches. Each
    // transfer is simulated up to the cap; a longer one is
    // extrapolated from that prefix by its factor. Its geometry is
    // derived here, once for all channels (every channel decodes
    // alike).
    Batch &b = batch_;
    b.xfer.clear();
    b.pair.assign(nt * static_cast<size_t>(C), Pair{});
    bool capped = false;
    for (const TransferDesc &d : pending_) {
        int64_t sim = std::min(d.words, kSimCap);
        capped = capped || sim < d.words;
        b.xfer.emplace_back(d, sim, channels_, ch_[0].dram);
    }

    // --- Joint service: one FR-FCFS window per channel over all
    // transfers in the batch (serveChannel).
    for (int c = 0; c < C; ++c) {
        serveChannel(c);
        if (capped)
            stretchChannel(c);
    }

    // --- Per-transfer results. With no capped transfer nothing
    // stretched, so each (transfer, channel) pair is done where its
    // service ended.
    for (size_t t = 0; t < nt; ++t) {
        const TransferDesc &d = pending_[t];
        const Transfer &x = b.xfer[t];
        TransferResult &r = results_[first_ticket + t];
        r.startCycle = d.startCycle;
        if (d.words <= 0) {
            r.serviceStart = d.startCycle;
            r.doneCycle = d.startCycle;
            continue;
        }
        const double f = x.factor;
        int64_t busy_total = 0, busy_max = 0, done = d.startCycle;
        const Pair *pr = &b.pair[t * static_cast<size_t>(C)];
        for (int c = 0; c < C; ++c) {
            int64_t true_busy = scaleCount(pr[c].busy, f);
            busy_total += true_busy;
            busy_max = std::max(busy_max, true_busy);
            int64_t end = capped ? pr[c].done : pr[c].lastEnd;
            if (end >= 0)
                done = std::max(done, end);
        }
        r.serviceStart = x.svcStart == kFar ? d.startCycle : x.svcStart;
        r.doneCycle = done + cfg_.latencyCycles;
        r.cycles = r.doneCycle - r.startCycle;
        r.busyCycles = busy_max;
        r.aliasStallCycles = C * busy_max - busy_total;
        // Counters: exact identities under extrapolation
        // (hits + misses == accesses == words).
        r.dramAccesses = d.words;
        r.dramRowHits =
            std::clamp<int64_t>(scaleCount(x.hits, f), 0, d.words);
        r.dramRowMisses = d.words - r.dramRowHits;
        r.bankConflicts = std::clamp<int64_t>(
            scaleCount(x.conflicts, f), 0, r.dramRowMisses);
        r.dramReorderSum = scaleCount(x.reorderSum, f);
        r.dramReorderMax = x.reorderMax;
        r.wordsPerCycle =
            r.cycles > 0 ? static_cast<double>(d.words) /
                               static_cast<double>(r.cycles)
                         : 0.0;
    }
    // A transfer of no words records no event.
    for (const PendingTrace &pt : traces_) {
        const TransferDesc &d = pending_[pt.index];
        if (d.words <= 0)
            continue;
        const TransferResult &r = results_[first_ticket + pt.index];
        pt.trace.tracer->span(
            "mem", pt.trace.label.empty() ? "transfer" : pt.trace.label,
            r.serviceStart, r.doneCycle, pt.trace.opId, trace::kTrackMem,
            {{"words", d.words},
             {"stride", d.strideWords},
             {"busy_cycles", r.busyCycles},
             {"row_hits", r.dramRowHits},
             {"row_misses", r.dramRowMisses},
             {"bank_conflicts", r.bankConflicts},
             {"alias_stall_cycles", r.aliasStallCycles},
             {"reorder_max", r.dramReorderMax}});
    }
    traces_.clear();
    pending_.clear();
}

// Inlined: it runs for every channel of every resolve.
[[gnu::always_inline]] inline void
StreamMemSystem::charge(ChannelRun &run, size_t t, int64_t cycles,
                        int64_t n, int64_t hits, int64_t conflicts,
                        int64_t pick)
{
    Transfer &x = batch_.xfer[t];
    Pair &pr = batch_.pair[t * static_cast<size_t>(cfg_.channels) +
                           static_cast<size_t>(run.c)];
    if (run.runStart < 0)
        run.runStart = run.now;
    x.svcStart = std::min(x.svcStart, run.now);
    run.now += cycles;
    pr.busy += cycles;
    pr.lastEnd = run.now;
    x.hits += hits;
    x.conflicts += conflicts;
    if (pick > 0) {
        x.reorderSum += pick;
        x.reorderMax = std::max(x.reorderMax, pick);
    }
    ChannelStats &cs = chStats_[static_cast<size_t>(run.c)];
    cs.busyCycles += cycles;
    cs.accesses += n;
    cs.rowHits += hits;
    cs.bankConflicts += conflicts;
}

// Inlined: it runs for every channel of every resolve.
[[gnu::always_inline]] inline void
StreamMemSystem::closeRun(ChannelRun &run)
{
    if (run.runStart >= 0 && run.now > run.runStart)
        busyIvs_.push_back(BusyInterval{run.runStart, run.now});
    run.runStart = -1;
}

// Inlined: it runs for every channel of every resolve.
[[gnu::always_inline]] inline void
StreamMemSystem::serveAlone(ChannelRun &run, size_t t, ChannelCursor &q)
{
    // Wait for the transfer, then serve its row runs back to back while
    // FR-FCFS would pick them in order. The first head that needs the
    // window is left for admission, as stepwise service would.
    if (pending_[t].startCycle > run.now) {
        closeRun(run);
        run.now = pending_[t].startCycle;
    }
    InOrderRun in_order = q.serveInOrder(ch_[static_cast<size_t>(run.c)].dram,
                                         cfg_.schedWindow, tCol_);
    if (in_order.n > 0)
        charge(run, t, in_order.cycles, in_order.n, in_order.hits,
               in_order.conflicts, 0);
}

// Inlined into its one caller.
[[gnu::always_inline]] inline void
StreamMemSystem::serveWindow(ChannelRun &run)
{
    const size_t nt = pending_.size();
    const int64_t window = cfg_.schedWindow;
    Batch &b = batch_;
    DramChannel &dram = ch_[static_cast<size_t>(run.c)].dram;
    size_t rr = 0; // round-robin admission cursor
    auto after = [nt](size_t t) { return t + 1 == nt ? 0 : t + 1; };
    auto ready = [&](size_t t) {
        return !b.cur[t].done() && pending_[t].startCycle <= run.now;
    };
    // How many of `n` in-order requests of transfer t, the first at `a`
    // and the rest row hits, finish before any other transfer with
    // requests left becomes ready. Stepwise service admits only t's
    // requests until then, so it would serve exactly these first, in
    // this order. With no other cursor live, all of them.
    auto run_length = [&](size_t t, const DramAddr &a, int64_t n) {
        if (run.live == (b.cur[t].done() ? 0u : 1u))
            return n;
        int64_t next = kFar;
        for (size_t u = 0; u < nt; ++u)
            if (u != t && !b.cur[u].done())
                next = std::min(next, pending_[u].startCycle);
        int64_t room = next - run.now - dram.cycles(a);
        return room < 1 ? 0 : std::min(n, (room - 1) / tCol_ + 1);
    };
    // Serve such a run in one step.
    auto serve_run = [&](size_t t, const DramAddr &a, int64_t n) {
        bool hit = dram.isRowHit(a);
        int64_t conflicts = !hit && dram.isBankOpen(a) ? 1 : 0;
        int64_t cycles = dram.service(a) + (n - 1) * tCol_;
        charge(run, t, cycles, n, hit ? n : n - 1, conflicts, 0);
    };
    do {
        if (window_.empty()) {
            // With the window empty and t the only transfer ready,
            // admission would fill it with t's next requests, and
            // FR-FCFS picks them in order while the oldest hits its
            // open row or all of them share its row: serve the rest of
            // the cursor's row run from the cursor.
            size_t t = 0;
            while (t < nt && !ready(t))
                ++t;
            if (t < nt) {
                ChannelCursor &q = b.cur[t];
                const DramAddr &a = q.addr();
                int64_t n = dram.isRowHit(a) || q.rowHolds(window)
                                ? run_length(t, a, q.rowRun())
                                : 0;
                if (n > 0) {
                    serve_run(t, a, n);
                    q.skip(n);
                    run.live -= q.done() ? 1 : 0;
                    rr = after(t);
                    continue;
                }
            }
        }
        // Admit requests round-robin across transfers that have
        // started, one per sweep, so concurrent transfers interleave
        // through the shared window instead of queueing
        // whole-transfer-at-a-time.
        bool admitted = true;
        while (window_.wantsMore() && admitted) {
            admitted = false;
            size_t t = rr;
            for (size_t k = 0; k < nt; ++k) {
                ChannelCursor &q = b.cur[t];
                if (ready(t)) {
                    window_.push(q.addr(), static_cast<int>(t));
                    q.skip(1);
                    run.live -= q.done() ? 1 : 0;
                    rr = after(t);
                    admitted = true;
                    break;
                }
                t = after(t);
            }
        }
        if (window_.empty()) {
            // Idle until the next transfer becomes ready.
            int64_t nxt = kFar;
            for (size_t t = 0; t < nt; ++t)
                if (!b.cur[t].done())
                    nxt = std::min(nxt, pending_[t].startCycle);
            closeRun(run);
            run.now = std::max(run.now, nxt);
            continue;
        }
        if (window_.uniform()) {
            // One transfer's requests in one row are served in arrival
            // order. Drop them in one step when that ends before
            // another transfer is ready: stepwise service would
            // meanwhile only admit t's next requests behind them
            // (moving the round-robin cursor past t), and the next
            // admission takes those from the cursor instead.
            auto t = static_cast<size_t>(window_.headTag());
            const DramAddr &a = window_.headAddr();
            auto n = static_cast<int64_t>(window_.size());
            if (run_length(t, a, n) == n) {
                serve_run(t, a, n);
                window_.clear();
                if (!b.cur[t].done())
                    rr = after(t);
                continue;
            }
        }
        WindowService s = window_.serviceNext(dram);
        charge(run, static_cast<size_t>(s.tag), s.cycles, 1,
               s.rowHit ? 1 : 0, s.bankConflict ? 1 : 0, s.pickIndex);
    } while (!window_.empty() || run.live > 1);
}

void
StreamMemSystem::serveChannel(int c)
{
    // Requests go to channel `wordAddr % C` at channel-local address
    // `wordAddr / C`, the classic interleaved decomposition; one lazy
    // cursor per transfer generates them, so the loop can interleave
    // concurrent transfers. Per (transfer, channel) totals are indexed
    // t * C + c.
    const size_t nt = pending_.size();
    Batch &b = batch_;
    Channel &chan = ch_[static_cast<size_t>(c)];
    size_t live = 0, last = 0;
    for (size_t t = 0; t < nt; ++t)
        if (!ChannelCursor(b.xfer[t].geom, c, chan.dram).done()) {
            ++live;
            last = t;
        }
    if (live == 0)
        return;
    ChannelRun run{c, chan.freeCycle, -1, live};
    auto start_cursors = [&] {
        b.cur.clear();
        for (size_t t = 0; t < nt; ++t)
            b.cur.emplace_back(b.xfer[t].geom, c, chan.dram);
    };
    if (live == 1) {
        // The usual case: one transfer has requests on the channel.
        // Its cursor stays local (in registers) unless a head needs
        // the window.
        ChannelCursor q(b.xfer[last].geom, c, chan.dram);
        serveAlone(run, last, q);
        if (q.done()) {
            closeRun(run);
            chan.freeCycle = run.now;
            return;
        }
        start_cursors();
        b.cur[last] = q;
    } else {
        start_cursors();
    }
    for (;;) {
        serveWindow(run);
        if (run.live == 0)
            break;
        size_t t = 0;
        while (b.cur[t].done())
            ++t;
        serveAlone(run, t, b.cur[t]);
        if (b.cur[t].done())
            break;
    }
    closeRun(run);
    chan.freeCycle = run.now;
}

void
StreamMemSystem::stretchChannel(int c)
{
    // Capped transfers own f-times their simulated pin time, so later
    // service on this channel (and the channel's free cursor) shifts by
    // the accumulated extra, ordered by when each transfer's prefix
    // finished.
    const size_t C = static_cast<size_t>(cfg_.channels);
    Batch &b = batch_;
    b.stretch.clear();
    int64_t total_extra = 0;
    for (size_t t = 0; t < b.xfer.size(); ++t) {
        size_t tc = t * C + static_cast<size_t>(c);
        const Pair &pr = b.pair[tc];
        if (pr.lastEnd < 0)
            continue;
        int64_t extra = scaleCount(pr.busy, b.xfer[t].factor - 1.0);
        b.stretch.push_back(Stretch{tc, pr.lastEnd, extra});
        total_extra += extra;
    }
    // The stretches are in ascending tc order, so breaking ties on tc
    // gives the stable order without stable_sort's buffer.
    std::sort(b.stretch.begin(), b.stretch.end(),
              [](const Stretch &x, const Stretch &y) {
                  return x.lastEnd != y.lastEnd ? x.lastEnd < y.lastEnd
                                                : x.tc < y.tc;
              });
    int64_t prefix = 0;
    for (const Stretch &st : b.stretch) {
        prefix += st.extra;
        b.pair[st.tc].done = st.lastEnd + prefix;
    }
    if (total_extra > 0) {
        ch_[static_cast<size_t>(c)].freeCycle += total_extra;
        chStats_[static_cast<size_t>(c)].busyCycles += total_extra;
        if (!busyIvs_.empty())
            busyIvs_.back().end += total_extra;
    }
}

TransferResult
StreamMemSystem::transfer(int64_t words, int64_t stride,
                          const TransferTrace *tr)
{
    SPS_ASSERT(stride >= 1, "bad stride %lld",
               static_cast<long long>(stride));
    resolveAll();
    // Standalone semantics: idle channels, closed rows, cycle 0 --
    // results do not depend on earlier standalone calls.
    beginProgram();
    if (words <= 0)
        return TransferResult{};
    TransferDesc d;
    d.words = words;
    d.baseWord = 0;
    d.strideWords = stride;
    d.recordWords = 1;
    d.startCycle = 0;
    int ticket = submit(d, tr);
    resolveAll();
    return results_[static_cast<size_t>(ticket)];
}

} // namespace sps::mem
