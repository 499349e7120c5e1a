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

/** Round-to-nearest scaling used by the extrapolation path. */
int64_t
scaleCount(int64_t sim_value, double factor)
{
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
 * channel count. It depends on the transfer alone, so a batch derives
 * it once per transfer, and each channel's cursor starts from a copy.
 */
struct StreamMemSystem::Geometry
{
    Geometry(const TransferDesc &d, int64_t sim_words, int channels)
    {
        int64_t rec = std::max<int64_t>(1, d.recordWords);
        int64_t stride = d.strideWords > 0 ? d.strideWords : rec;
        if (stride == rec)
            rec = std::max<int64_t>(1, sim_words);
        recWords = rec;
        recsLeft = (sim_words + rec - 1) / rec;
        lastWords = sim_words - (recsLeft - 1) * rec;
        startQ = d.baseWord / channels;
        startR = static_cast<int>(d.baseWord % channels);
        strideQ = stride / channels;
        strideR = static_cast<int>(stride % channels);
    }

    /** Words per record (the whole prefix when dense). */
    int64_t recWords = 0;
    /** Records not yet passed, the current one included. */
    int64_t recsLeft = 0;
    /** Words in the final, possibly partial, record. */
    int64_t lastWords = 0;
    /** Current record's start address: quotient and residue by the
     *  channel count, and the same split of the stride. */
    int64_t startQ = 0;
    int startR = 0;
    int64_t strideQ = 0;
    int strideR = 0;
};

/**
 * Lazy address generator for one (transfer, channel) pair: yields, in
 * transfer order, the DRAM coordinates of the transfer's simulated
 * words that live on the channel (word address mod channels).
 *
 * A record's words on one channel sit `channels` apart, so their
 * channel-local addresses are consecutive: the cursor decodes the
 * first word of each such run once and steps through the rest. Record
 * starts advance by the geometry's quotient and residue of the stride,
 * so moving to the next record divides nothing either, and skipping a
 * record with no word on the channel costs a few adds. A dense
 * transfer is one record, hence one run per channel.
 */
class StreamMemSystem::ChannelCursor
{
  public:
    ChannelCursor(const Geometry &g, int channel, int channels,
                  const DramChannel &dram)
        : dram_(&dram), channel_(channel), channels_(channels), g_(g)
    {
        seek();
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
        return run >= n || (run == left_ && g_.recsLeft == 1);
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
        --g_.recsLeft;
        g_.startQ += g_.strideQ;
        g_.startR += g_.strideR;
        if (g_.startR >= channels_) {
            g_.startR -= channels_;
            ++g_.startQ;
        }
    }

    /** Position on the first run, from the current record on, that
     *  has a word on this channel; done when there is none. */
    void seek()
    {
        for (; g_.recsLeft > 0; nextRecord()) {
            int64_t len = g_.recsLeft == 1 ? g_.lastWords : g_.recWords;
            int off = channel_ - g_.startR;
            if (off < 0)
                off += channels_;
            if (off < len) {
                left_ = (len - off - 1) / channels_ + 1;
                at_ = dram_->decode(g_.startQ +
                                    (g_.startR + off >= channels_ ? 1 : 0));
                return;
            }
        }
        left_ = 0;
    }

    const DramChannel *dram_;
    int channel_;
    int channels_;
    /** The record walk, advanced in place. */
    Geometry g_;
    /** This channel's words left in the current run; 0 when done. */
    int64_t left_ = 0;
    DramAddr at_;
};

StreamMemSystem::StreamMemSystem(StreamMemConfig cfg)
    : cfg_(cfg), tCol_(checkedTCol(cfg_)),
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
    results_.push_back(TransferResult{});
    results_[static_cast<size_t>(ticket)].startCycle = desc.startCycle;
    Pending p;
    p.desc = desc;
    if (tr != nullptr && SPS_TRACE_ENABLED(tr->tracer)) {
        p.trace = *tr;
        p.traced = true;
    }
    p.ticket = ticket;
    pending_.push_back(std::move(p));
    return ticket;
}

bool
StreamMemSystem::resolved(int ticket) const
{
    for (const Pending &p : pending_)
        if (p.ticket == ticket)
            return false;
    return ticket >= 0 &&
           ticket < static_cast<int>(results_.size());
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

std::vector<BusyInterval>
StreamMemSystem::takeBusyIntervals()
{
    std::vector<BusyInterval> out = std::move(busyIvs_);
    busyIvs_.clear();
    return out;
}

void
StreamMemSystem::resolveAll()
{
    if (pending_.empty())
        return;
    const int C = cfg_.channels;
    const size_t nt = pending_.size();
    constexpr int64_t kFar = std::numeric_limits<int64_t>::max();

    // The batch buffers keep their capacity from earlier batches; every
    // array is reset here, the per-channel ones below.
    Batch &b = batch_;
    const size_t ntc = nt * static_cast<size_t>(C);
    b.factor.assign(nt, 1.0);
    b.svcStart.assign(nt, kFar);
    b.simHits.assign(nt, 0);
    b.simConflicts.assign(nt, 0);
    b.simReorderSum.assign(nt, 0);
    b.simReorderMax.assign(nt, 0);
    b.busyTC.assign(ntc, 0);
    b.lastEndTC.assign(ntc, -1);
    b.geom.clear();

    // Each transfer is simulated up to the cap; a longer one is
    // extrapolated from that prefix by `factor`. Its geometry is
    // derived here, once for all channels.
    bool capped = false;
    for (size_t t = 0; t < nt; ++t) {
        const TransferDesc &d = pending_[t].desc;
        int64_t sim = std::min(d.words, kSimCap);
        capped = capped || sim < d.words;
        b.factor[t] = sim > 0 ? static_cast<double>(d.words) /
                                    static_cast<double>(sim)
                              : 1.0;
        b.geom.emplace_back(d, sim, C);
    }
    // Only a capped transfer stretches a channel's later service.
    if (capped)
        b.doneTC.assign(ntc, -1);

    // --- Joint service: one FR-FCFS window per channel over all
    // transfers in the batch. Requests go to channel `wordAddr % C`
    // at channel-local address `wordAddr / C`, the classic interleaved
    // decomposition; one lazy cursor per transfer generates them, so
    // the loop can interleave concurrent transfers. Per (transfer,
    // channel) totals are indexed t * C + c.

    for (int c = 0; c < C; ++c) {
        Channel &chan = ch_[static_cast<size_t>(c)];
        ChannelStats &cs = chStats_[static_cast<size_t>(c)];
        b.cur.clear();
        size_t live = 0; // cursors with requests left
        for (size_t t = 0; t < nt; ++t) {
            b.cur.emplace_back(b.geom[t], c, C, chan.dram);
            live += b.cur.back().done() ? 0 : 1;
        }
        if (live == 0)
            continue;
        int64_t now = chan.freeCycle;
        size_t rr = 0; // round-robin admission cursor
        int64_t runStart = -1;
        auto close_run = [&] {
            if (runStart >= 0 && now > runStart)
                busyIvs_.push_back(BusyInterval{runStart, now});
            runStart = -1;
        };
        auto after = [nt](size_t t) { return t + 1 == nt ? 0 : t + 1; };
        auto ready = [&](size_t t) {
            return !b.cur[t].done() &&
                   pending_[t].desc.startCycle <= now;
        };
        // Account `n` requests of transfer t serviced back to back
        // from `now`, taking `cycles` in all.
        auto charge = [&](size_t t, int64_t cycles, int64_t n,
                          int64_t hits, bool conflict, int64_t pick) {
            size_t tc = t * static_cast<size_t>(C) +
                        static_cast<size_t>(c);
            if (runStart < 0)
                runStart = now;
            b.svcStart[t] = std::min(b.svcStart[t], now);
            now += cycles;
            b.busyTC[tc] += cycles;
            b.lastEndTC[tc] = now;
            b.simHits[t] += hits;
            b.simConflicts[t] += conflict ? 1 : 0;
            b.simReorderSum[t] += pick;
            b.simReorderMax[t] = std::max(b.simReorderMax[t], pick);
            cs.busyCycles += cycles;
            cs.accesses += n;
            cs.rowHits += hits;
            cs.bankConflicts += conflict ? 1 : 0;
        };
        // How many of `n` in-order requests of transfer t, the first at
        // `a` and the rest row hits, finish before any other transfer
        // with requests left becomes ready. Stepwise service admits
        // only t's requests until then, so it would serve exactly
        // these first, in this order.
        auto run_length = [&](size_t t, const DramAddr &a, int64_t n) {
            int64_t next = kFar;
            for (size_t u = 0; u < nt; ++u)
                if (u != t && !b.cur[u].done())
                    next = std::min(next, pending_[u].desc.startCycle);
            int64_t room = next - now - chan.dram.cycles(a);
            return room < 1 ? 0
                            : std::min(n, (room - 1) / tCol_ + 1);
        };
        // Serve such a run in one step.
        auto serve_run = [&](size_t t, const DramAddr &a, int64_t n) {
            bool hit = chan.dram.isRowHit(a);
            bool conflict = !hit && chan.dram.isBankOpen(a);
            int64_t cycles =
                chan.dram.service(a) + (n - 1) * tCol_;
            charge(t, cycles, n, hit ? n : n - 1, conflict, 0);
        };
        while (!window_.empty() || live > 0) {
            if (window_.empty()) {
                // With the window empty and t the only transfer ready,
                // admission would fill it with t's next requests, and
                // FR-FCFS picks them in order while the oldest hits
                // its open row or all of them share its row: serve the
                // rest of the cursor's row run from the cursor.
                size_t t = 0;
                while (t < nt && !ready(t))
                    ++t;
                if (t < nt) {
                    ChannelCursor &q = b.cur[t];
                    const DramAddr &a = q.addr();
                    int64_t n =
                        chan.dram.isRowHit(a) || q.rowHolds(cfg_.schedWindow)
                            ? run_length(t, a, q.rowRun())
                            : 0;
                    if (n > 0) {
                        serve_run(t, a, n);
                        q.skip(n);
                        live -= q.done() ? 1 : 0;
                        rr = after(t);
                        continue;
                    }
                }
            }
            // Admit requests round-robin across transfers that have
            // started, one per sweep, so concurrent transfers
            // interleave through the shared window instead of
            // queueing whole-transfer-at-a-time.
            bool admitted = true;
            while (window_.wantsMore() && admitted) {
                admitted = false;
                size_t t = rr;
                for (size_t k = 0; k < nt; ++k) {
                    ChannelCursor &q = b.cur[t];
                    if (ready(t)) {
                        window_.push(q.addr(), static_cast<int>(t));
                        q.skip(1);
                        live -= q.done() ? 1 : 0;
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
                        nxt = std::min(nxt,
                                       pending_[t].desc.startCycle);
                close_run();
                now = std::max(now, nxt);
                continue;
            }
            if (window_.uniform()) {
                // One transfer's requests in one row are served in
                // arrival order. Drop them in one step when that ends
                // before another transfer is ready: stepwise service
                // would meanwhile only admit t's next requests behind
                // them (moving the round-robin cursor past t), and the
                // next admission takes those from the cursor instead.
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
            WindowService s = window_.serviceNext(chan.dram);
            charge(static_cast<size_t>(s.tag), s.cycles, 1,
                   s.rowHit ? 1 : 0, s.bankConflict, s.pickIndex);
        }
        close_run();
        chan.freeCycle = now;
        if (!capped)
            continue;

        // Extrapolation stretch: capped transfers own f-times their
        // simulated pin time, so later service on this channel (and
        // the channel's free cursor) shifts by the accumulated extra,
        // ordered by when each transfer's prefix finished.
        b.stretch.clear();
        int64_t total_extra = 0;
        for (size_t t = 0; t < nt; ++t) {
            size_t tc = t * static_cast<size_t>(C) +
                        static_cast<size_t>(c);
            if (b.lastEndTC[tc] < 0)
                continue;
            int64_t extra = scaleCount(b.busyTC[tc], b.factor[t] - 1.0);
            b.stretch.push_back(Stretch{tc, b.lastEndTC[tc], extra});
            total_extra += extra;
        }
        // The stretches are in ascending tc order, so breaking ties on
        // tc gives the stable order without stable_sort's buffer.
        std::sort(b.stretch.begin(), b.stretch.end(),
                  [](const Stretch &x, const Stretch &y) {
                      return x.lastEnd != y.lastEnd
                                 ? x.lastEnd < y.lastEnd
                                 : x.tc < y.tc;
                  });
        int64_t prefix = 0;
        for (const Stretch &s : b.stretch) {
            prefix += s.extra;
            b.doneTC[s.tc] = s.lastEnd + prefix;
        }
        if (total_extra > 0) {
            chan.freeCycle += total_extra;
            cs.busyCycles += total_extra;
            if (!busyIvs_.empty())
                busyIvs_.back().end += total_extra;
        }
    }

    // --- Per-transfer results. With no capped transfer nothing
    // stretched, so each (transfer, channel) pair is done where its
    // service ended.
    const std::vector<int64_t> &done_tc = capped ? b.doneTC : b.lastEndTC;
    for (size_t t = 0; t < nt; ++t) {
        const Pending &p = pending_[t];
        const TransferDesc &d = p.desc;
        TransferResult &r =
            results_[static_cast<size_t>(p.ticket)];
        r.startCycle = d.startCycle;
        if (d.words <= 0) {
            r.serviceStart = d.startCycle;
            r.doneCycle = d.startCycle;
            continue;
        }
        double f = b.factor[t];
        int64_t busy_total = 0, busy_max = 0, done = d.startCycle;
        for (size_t tc = t * static_cast<size_t>(C);
             tc < (t + 1) * static_cast<size_t>(C); ++tc) {
            int64_t true_busy = scaleCount(b.busyTC[tc], f);
            busy_total += true_busy;
            busy_max = std::max(busy_max, true_busy);
            if (done_tc[tc] >= 0)
                done = std::max(done, done_tc[tc]);
        }
        r.serviceStart = b.svcStart[t] == kFar ? d.startCycle
                                               : b.svcStart[t];
        r.doneCycle = done + cfg_.latencyCycles;
        r.cycles = r.doneCycle - r.startCycle;
        r.busyCycles = busy_max;
        r.aliasStallCycles = C * busy_max - busy_total;
        // Counters: exact identities under extrapolation
        // (hits + misses == accesses == words).
        r.dramAccesses = d.words;
        r.dramRowHits = std::clamp<int64_t>(
            scaleCount(b.simHits[t], f), 0, d.words);
        r.dramRowMisses = d.words - r.dramRowHits;
        r.bankConflicts = std::clamp<int64_t>(
            scaleCount(b.simConflicts[t], f), 0, r.dramRowMisses);
        r.dramReorderSum = scaleCount(b.simReorderSum[t], f);
        r.dramReorderMax = b.simReorderMax[t];
        r.wordsPerCycle =
            r.cycles > 0 ? static_cast<double>(d.words) /
                               static_cast<double>(r.cycles)
                         : 0.0;
        if (p.traced) {
            p.trace.tracer->span(
                "mem",
                p.trace.label.empty() ? "transfer" : p.trace.label,
                r.serviceStart, r.doneCycle, p.trace.opId,
                trace::kTrackMem,
                {{"words", d.words},
                 {"stride", d.strideWords},
                 {"busy_cycles", r.busyCycles},
                 {"row_hits", r.dramRowHits},
                 {"row_misses", r.dramRowMisses},
                 {"bank_conflicts", r.bankConflicts},
                 {"alias_stall_cycles", r.aliasStallCycles},
                 {"reorder_max", r.dramReorderMax}});
        }
    }
    pending_.clear();
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
