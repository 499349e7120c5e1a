/**
 * @file
 * Memory access scheduling (after Rixner et al., ISCA 2000, the
 * streaming memory system the paper builds on): requests are reordered
 * within a window to favor open-row accesses (FR-FCFS), which is what
 * lets strided stream accesses approach peak DRAM bandwidth. An age
 * cap bounds starvation: once the oldest request has been bypassed
 * maxBypass times, it is serviced next regardless of row state.
 *
 * AccessWindow is the scheduling core: StreamMemSystem's interleaved
 * per-channel service loop pushes requests in arrival order and pops
 * them in scheduled order, so concurrent stream transfers share one
 * window per channel. Requests arrive decoded into bank and row, and
 * the window is a fixed ring: when the oldest request hits its open
 * row (the usual case for a stream), a pick costs one bank-table
 * lookup and no shifting. The window holds no channel: serviceNext()
 * takes the one to service on, so StreamMemSystem serves every channel
 * of every batch with one window and allocates its ring once.
 *
 * A pick is in arrival order (index 0, nothing bypassed, the age cap
 * moot) whenever the oldest request hits its open row, or every
 * request in the window lies in the oldest one's bank and row. The
 * service loop uses this rule to serve a run of such picks in one
 * step, from the transfer's address cursor or, through uniform() and
 * clear(), from the window itself; serviceNext() stays the only
 * picker for everything else.
 */
#ifndef SPS_MEM_ACCESS_SCHED_H
#define SPS_MEM_ACCESS_SCHED_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/dram.h"

namespace sps::mem {

/** Default FR-FCFS reorder window (requests). */
constexpr int kSchedWindow = 16;
/** Default starvation bound: a request is serviced after being
 *  bypassed at most this many times. */
constexpr int kSchedMaxBypass = 64;

/** One serviced request, as reported by AccessWindow::serviceNext. */
struct WindowService
{
    /** Caller-supplied tag of the serviced request (e.g. which
     *  transfer it belongs to). */
    int tag = 0;
    /** Cycles the channel's pins were busy servicing it. */
    int cycles = 0;
    /** Arrival-order index within the window at pick time (how many
     *  older requests this pick bypassed). */
    int64_t pickIndex = 0;
    /** Times this request itself was bypassed before being serviced. */
    int64_t bypassed = 0;
    bool rowHit = false;
    /** Row miss that had to precharge another open row first. */
    bool bankConflict = false;
};

/**
 * FR-FCFS pick window over one channel at a time. Requests enter in
 * arrival order; serviceNext() picks the oldest row hit (oldest
 * request if none), services it on the given channel, and reports the
 * reorder bookkeeping. The age cap forces the oldest request once it
 * has been bypassed maxBypass times, so a row-hit flood cannot starve
 * an old miss indefinitely. Every request in the window belongs to
 * the channel it is serviced on; once empty, the window may serve
 * another channel.
 */
class AccessWindow
{
  public:
    explicit AccessWindow(int window = kSchedWindow,
                          int max_bypass = kSchedMaxBypass);

    /** True while the window has room for more arrivals. */
    bool wantsMore() const { return size_ < window_; }

    bool empty() const { return size_ == 0; }

    size_t size() const { return size_; }

    /** Add a request at the back (arrival order); the window must
     *  want more. */
    void push(const DramAddr &addr, int tag)
    {
        at(size_) = Entry{addr, 0, tag};
        ++size_;
    }

    /** The oldest request's address and tag; the window must be
     *  non-empty. */
    const DramAddr &headAddr() const { return at(0).addr; }
    int headTag() const { return at(0).tag; }

    /**
     * True if every request has the oldest one's tag and lies in its
     * bank and row. FR-FCFS then serves the whole window in arrival
     * order: the oldest misses only if all of them do, and every
     * later one hits the row the oldest opened.
     */
    bool uniform() const;

    /** Drop every request, once the caller has serviced them in
     *  arrival order. */
    void clear() { size_ = 0; }

    /** Service the scheduled pick on `channel`, the channel every
     *  request in the window belongs to; the window must be
     *  non-empty. */
    WindowService serviceNext(DramChannel &channel);

  private:
    struct Entry
    {
        DramAddr addr;
        int64_t bypassed = 0;
        int tag = 0;
    };
    /** The i-th oldest entry. */
    Entry &at(size_t i) { return ring_[(head_ + i) & mask_]; }
    const Entry &at(size_t i) const { return ring_[(head_ + i) & mask_]; }

    /** Ring storage, the window rounded up to a power of two. */
    std::vector<Entry> ring_;
    size_t mask_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t window_;
    int64_t maxBypass_;
};

} // namespace sps::mem

#endif // SPS_MEM_ACCESS_SCHED_H
