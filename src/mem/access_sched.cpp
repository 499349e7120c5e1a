#include "mem/access_sched.h"

#include <cstddef>

namespace sps::mem {

using std::size_t;

WindowService
AccessWindow::serviceNext()
{
    // First-ready: oldest row hit, else oldest request. The window is
    // in arrival order, so the pick's index is the number of older
    // requests it bypasses. The age cap overrides first-ready: once
    // the oldest request has been bypassed maxBypass_ times it goes
    // next, bounding starvation under a row-hit flood (the oldest
    // entry always has the largest bypass count, so checking the head
    // suffices).
    size_t pick = 0;
    if (win_.front().bypassed < maxBypass_) {
        for (size_t i = 0; i < win_.size(); ++i) {
            if (channel_.isRowHit(win_[i].req)) {
                pick = i;
                break;
            }
        }
    }
    for (size_t i = 0; i < pick; ++i)
        ++win_[i].bypassed;

    Entry e = win_[pick];
    WindowService s;
    s.tag = e.tag;
    s.pickIndex = static_cast<int64_t>(pick);
    s.bypassed = e.bypassed;
    s.rowHit = channel_.isRowHit(e.req);
    s.bankConflict = !s.rowHit && channel_.isBankOpen(e.req);
    s.cycles = channel_.service(e.req);
    win_.erase(win_.begin() +
               static_cast<std::deque<Entry>::difference_type>(pick));
    return s;
}

} // namespace sps::mem
