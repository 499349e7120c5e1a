#include "store/codec.h"

#include "common/fnv.h"
#include "common/xxh64.h"

namespace sps::store {

uint64_t
headerChecksum(const uint8_t *prefix, const std::vector<uint8_t> &payload)
{
    return xxh64(payload.data(), payload.size(),
                 xxh64(prefix, kHeaderPrefixBytes, 0));
}

uint64_t
fnv1aBytes(const uint8_t *data, size_t n)
{
    uint64_t h = Fnv::kOffset;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= Fnv::kPrime;
    }
    return h;
}

void
encodeCompiledKernel(const sched::CompiledKernel &ck, ByteWriter *w)
{
    encodeValue(ck, w);
}

bool
decodeCompiledKernel(const std::vector<uint8_t> &bytes,
                     sched::CompiledKernel *out)
{
    ByteReader r(bytes);
    sched::CompiledKernel ck;
    if (!decodeValue(&r, &ck) || !r.done())
        return false;
    *out = ck;
    return true;
}

// Flattened so the field-table walk inlines into one straight-line
// codec: a daemon encodes a full result on every reply.
[[gnu::flatten]] void
encodeSimResult(const sim::SimResult &res, ByteWriter *w)
{
    encodeValue(res, w);
}

[[gnu::flatten]] bool
decodeSimResult(const std::vector<uint8_t> &bytes, sim::SimResult *out)
{
    ByteReader r(bytes);
    sim::SimResult res;
    if (!decodeValue(&r, &res) || !r.done())
        return false;
    *out = std::move(res);
    return true;
}

} // namespace sps::store
