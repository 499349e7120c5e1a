#include "mem/dram.h"

#include <stdexcept>
#include <string>

namespace sps::mem {

DramChannel::DramChannel(DramTiming timing, int t_col)
    : timing_(timing), tCol_(t_col)
{
    if (!(timing_.banks >= 1 && timing_.rowWords >= 1))
        throw std::invalid_argument(
            "bad DRAM geometry: banks " + std::to_string(timing_.banks) +
            ", row words " + std::to_string(timing_.rowWords) +
            " (both must be at least 1)");
    rowWords_ = Divisor(timing_.rowWords);
    banks_ = Divisor(timing_.banks);
    openRow_.assign(static_cast<size_t>(timing_.banks), -1);
}

void
DramChannel::reset()
{
    openRow_.assign(static_cast<size_t>(timing_.banks), -1);
}

} // namespace sps::mem
