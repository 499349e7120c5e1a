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
 * window per channel. Requests arrive decoded into bank and row and
 * sit in arrival order in a buffer of twice the window: when the
 * oldest request hits its open row (the usual case for a stream), a
 * pick costs one bank-table lookup and no shifting, and a deeper pick
 * closes its gap with one block move from the shorter side. No pick
 * touches the requests it bypasses: each request's bypass count
 * follows from the window's pick count and its own index (see
 * Entry::key). The window holds no channel: serviceNext() takes the
 * one to service on, so StreamMemSystem serves every channel of every
 * batch with one window and allocates its buffer once.
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

#include <algorithm>
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
        if (head_ + size_ == buf_.size()) {
            // Out of room at the back: move the window to the front.
            std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                      buf_.begin() +
                          static_cast<std::ptrdiff_t>(head_ + size_),
                      buf_.begin());
            head_ = 0;
        }
        // Field by field: the caller's cursor has just stepped them one
        // at a time, and one wide load of the whole address would stall
        // on those narrower stores.
        Entry &e = buf_[head_ + size_];
        e.addr.row = addr.row;
        e.addr.bank = addr.bank;
        e.addr.col = addr.col;
        e.key = picks_ + static_cast<int64_t>(size_);
        e.tag = tag;
        ++size_;
    }

    /** The oldest request's address and tag; the window must be
     *  non-empty. */
    const DramAddr &headAddr() const { return buf_[head_].addr; }
    int headTag() const { return buf_[head_].tag; }

    /**
     * True if every request has the oldest one's tag and lies in its
     * bank and row. FR-FCFS then serves the whole window in arrival
     * order: the oldest misses only if all of them do, and every
     * later one hits the row the oldest opened.
     */
    bool uniform() const;

    /** Drop every request, once the caller has serviced them in
     *  arrival order. */
    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Service the scheduled pick on `channel`, the channel every
     *  request in the window belongs to; the window must be
     *  non-empty. */
    WindowService serviceNext(DramChannel &channel);

  private:
    struct Entry
    {
        DramAddr addr;
        /**
         * picks_ + index when pushed. A request is bypassed once by
         * every later pick of a younger request; an older request
         * leaves only by a pick (or clear()), which lowers its index
         * by one. So it has been bypassed picks_ + index - key times.
         */
        int64_t key = 0;
        int tag = 0;
    };

    /** Storage of twice the window; the window is buf_[head_, head_ +
     *  size_), oldest first. */
    std::vector<Entry> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t window_;
    int64_t maxBypass_;
    /** Picks made by serviceNext() so far. */
    int64_t picks_ = 0;
};

inline bool
AccessWindow::uniform() const
{
    const Entry *w = buf_.data() + head_;
    for (size_t i = 1; i < size_; ++i) {
        if (w[i].tag != w[0].tag || w[i].addr.bank != w[0].addr.bank ||
            w[i].addr.row != w[0].addr.row)
            return false;
    }
    return true;
}

inline WindowService
AccessWindow::serviceNext(DramChannel &channel)
{
    // First-ready: oldest row hit, else oldest request. The window is
    // in arrival order, so the pick's index is the number of older
    // requests it bypasses. The age cap overrides first-ready: once
    // the oldest request has been bypassed maxBypass_ times it goes
    // next, bounding starvation under a row-hit flood (the oldest
    // entry always has the largest bypass count, so checking the head
    // suffices).
    Entry *w = buf_.data() + head_;
    size_t pick = 0;
    bool hit = false;
    if (picks_ - w[0].key < maxBypass_) {
        for (size_t i = 0; i < size_; ++i) {
            if (channel.isRowHit(w[i].addr)) {
                pick = i;
                hit = true;
                break;
            }
        }
    } else {
        hit = channel.isRowHit(w[0].addr);
    }

    const Entry e = w[pick];
    WindowService s;
    s.tag = e.tag;
    s.pickIndex = static_cast<int64_t>(pick);
    s.bypassed = picks_ + static_cast<int64_t>(pick) - e.key;
    s.rowHit = hit;
    s.bankConflict = !hit && channel.isBankOpen(e.addr);
    s.cycles = channel.service(e.addr);

    // Close the gap from the shorter side: the older entries move one
    // slot back and the head advances, or the younger ones move one
    // slot forward.
    if (pick < size_ - 1 - pick) {
        std::copy_backward(w, w + pick, w + pick + 1);
        ++head_;
    } else {
        std::copy(w + pick + 1, w + size_, w + pick);
    }
    --size_;
    ++picks_;
    return s;
}

} // namespace sps::mem

#endif // SPS_MEM_ACCESS_SCHED_H
