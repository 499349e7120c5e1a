#include "srf/allocator.h"

#include <algorithm>

#include "common/log.h"

namespace sps::srf {

bool
Allocator::allocate(int64_t stream_id, int64_t words)
{
    SPS_ASSERT(words >= 0, "negative allocation");
    SPS_ASSERT(!resident(stream_id), "stream %lld already resident",
               static_cast<long long>(stream_id));
    if (used_ + words > capacity_)
        return false;
    hold(stream_id, words);
    return true;
}

void
Allocator::forceAllocate(int64_t stream_id, int64_t words)
{
    SPS_ASSERT(words >= 0, "negative allocation");
    SPS_ASSERT(!resident(stream_id), "stream %lld already resident",
               static_cast<long long>(stream_id));
    hold(stream_id, words);
}

bool
Allocator::release(int64_t stream_id)
{
    int64_t words = held(stream_id);
    if (words == kAbsent)
        return false;
    used_ -= words;
    live_[static_cast<size_t>(stream_id)] = kAbsent;
    return true;
}

bool
Allocator::resident(int64_t stream_id) const
{
    return held(stream_id) != kAbsent;
}

int64_t
Allocator::held(int64_t stream_id) const
{
    SPS_ASSERT(stream_id >= 0, "negative stream id %lld",
               static_cast<long long>(stream_id));
    return stream_id < static_cast<int64_t>(live_.size())
               ? live_[static_cast<size_t>(stream_id)]
               : kAbsent;
}

void
Allocator::hold(int64_t stream_id, int64_t words)
{
    auto id = static_cast<size_t>(stream_id);
    if (id >= live_.size())
        live_.resize(id + 1, kAbsent);
    live_[id] = words;
    used_ += words;
    highWater_ = std::max(highWater_, used_);
}

} // namespace sps::srf
