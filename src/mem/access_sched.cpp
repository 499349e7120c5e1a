#include "mem/access_sched.h"

#include <bit>

#include "common/log.h"

namespace sps::mem {

AccessWindow::AccessWindow(int window, int max_bypass)
    : ring_(std::bit_ceil(static_cast<size_t>(window))),
      mask_(ring_.size() - 1), window_(static_cast<size_t>(window)),
      maxBypass_(max_bypass)
{
    SPS_ASSERT(window >= 1 && max_bypass >= 1, "bad scheduler window");
}

bool
AccessWindow::uniform() const
{
    const Entry &h = at(0);
    for (size_t i = 1; i < size_; ++i) {
        const Entry &e = at(i);
        if (e.tag != h.tag || e.addr.bank != h.addr.bank ||
            e.addr.row != h.addr.row)
            return false;
    }
    return true;
}

WindowService
AccessWindow::serviceNext(DramChannel &channel)
{
    // First-ready: oldest row hit, else oldest request. The window is
    // in arrival order, so the pick's index is the number of older
    // requests it bypasses. The age cap overrides first-ready: once
    // the oldest request has been bypassed maxBypass_ times it goes
    // next, bounding starvation under a row-hit flood (the oldest
    // entry always has the largest bypass count, so checking the head
    // suffices).
    size_t pick = 0;
    bool hit = false;
    if (at(0).bypassed < maxBypass_) {
        for (size_t i = 0; i < size_; ++i) {
            if (channel.isRowHit(at(i).addr)) {
                pick = i;
                hit = true;
                break;
            }
        }
    } else {
        hit = channel.isRowHit(at(0).addr);
    }

    Entry e = at(pick);
    // Close the gap: every older entry moves one slot towards the
    // pick, counting one more bypass, and the head advances past the
    // vacated front slot.
    for (size_t i = pick; i > 0; --i) {
        at(i) = at(i - 1);
        ++at(i).bypassed;
    }
    head_ = (head_ + 1) & mask_;
    --size_;

    WindowService s;
    s.tag = e.tag;
    s.pickIndex = static_cast<int64_t>(pick);
    s.bypassed = e.bypassed;
    s.rowHit = hit;
    s.bankConflict = !hit && channel.isBankOpen(e.addr);
    s.cycles = channel.service(e.addr);
    return s;
}

} // namespace sps::mem
