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
    openRow_.assign(static_cast<size_t>(timing_.banks), -1);
}

DramAddr
DramChannel::decode(int64_t word_addr) const
{
    int64_t rows = word_addr / timing_.rowWords;
    DramAddr a;
    a.col = static_cast<int>(word_addr - rows * timing_.rowWords);
    a.row = rows / timing_.banks;
    a.bank = static_cast<int>(rows - a.row * timing_.banks);
    return a;
}

void
DramChannel::reset()
{
    openRow_.assign(static_cast<size_t>(timing_.banks), -1);
}

} // namespace sps::mem
