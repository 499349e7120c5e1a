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
 * window per channel.
 */
#ifndef SPS_MEM_ACCESS_SCHED_H
#define SPS_MEM_ACCESS_SCHED_H

#include <cstddef>
#include <deque>

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
 * FR-FCFS pick window over one channel. Requests enter in arrival
 * order; serviceNext() picks the oldest row hit (oldest request if
 * none), services it on the channel, and reports the reorder
 * bookkeeping. The age cap forces the oldest request once it has been
 * bypassed maxBypass times, so a row-hit flood cannot starve an old
 * miss indefinitely.
 */
class AccessWindow
{
  public:
    AccessWindow(DramChannel &channel, int window = kSchedWindow,
                 int max_bypass = kSchedMaxBypass)
        : channel_(channel), window_(window), maxBypass_(max_bypass)
    {}

    /** True while the window has room for more arrivals. */
    bool wantsMore() const
    {
        return static_cast<int>(win_.size()) < window_;
    }

    bool empty() const { return win_.empty(); }
    size_t size() const { return win_.size(); }

    /** Add a request at the back (arrival order). */
    void push(const MemRequest &req, int tag)
    {
        win_.push_back(Entry{req, tag, 0});
    }

    /** Service the scheduled pick; the window must be non-empty. */
    WindowService serviceNext();

  private:
    struct Entry
    {
        MemRequest req;
        int tag = 0;
        int64_t bypassed = 0;
    };
    DramChannel &channel_;
    std::deque<Entry> win_;
    int window_;
    int maxBypass_;
};

} // namespace sps::mem

#endif // SPS_MEM_ACCESS_SCHED_H
