#include "mem/access_sched.h"

#include <algorithm>

#include "common/log.h"

namespace sps::mem {

AccessWindow::AccessWindow(int window, int max_bypass)
    : buf_(2 * static_cast<size_t>(std::max(window, 1))),
      window_(static_cast<size_t>(window)), maxBypass_(max_bypass)
{
    SPS_ASSERT(window >= 1 && max_bypass >= 1, "bad scheduler window");
}

} // namespace sps::mem
