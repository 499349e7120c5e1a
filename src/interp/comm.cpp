#include "interp/comm.h"

#include "common/log.h"

namespace sps::interp {

void
commExchange(const std::vector<isa::Word> &sent, int c,
             const std::function<int(int)> &src_of,
             const std::function<void(int, isa::Word)> &deliver)
{
    SPS_ASSERT(static_cast<int>(sent.size()) >= c, "short send vector");
    for (int cl = 0; cl < c; ++cl) {
        int src = src_of(cl) % c;
        if (src < 0)
            src += c;
        deliver(cl, sent[static_cast<size_t>(src)]);
    }
}

void
commExchange(const isa::Word *sent, int c, const isa::Word *src_sel,
             isa::Word *dst)
{
    if ((c & (c - 1)) == 0) {
        // Power-of-two cluster counts: two's-complement masking is
        // exactly the wrapped Euclidean modulus, without the per-lane
        // integer divide.
        const uint32_t mask = static_cast<uint32_t>(c - 1);
        for (int cl = 0; cl < c; ++cl)
            dst[cl] = sent[src_sel[cl].bits & mask];
        return;
    }
    for (int cl = 0; cl < c; ++cl) {
        int src = src_sel[cl].asInt();
        // A selector already in [0, c) needs no divide.
        if (static_cast<unsigned>(src) >= static_cast<unsigned>(c)) {
            src %= c;
            if (src < 0)
                src += c;
        }
        dst[cl] = sent[static_cast<size_t>(src)];
    }
}

} // namespace sps::interp
