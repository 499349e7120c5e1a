#include "kernel/fingerprint.h"

#include "common/fnv.h"

namespace sps::kernel {

namespace {
/** FNV-1a over the kernel's whole graph, in a fixed field order. */
uint64_t
walk(const Kernel &k)
{
    Fnv f;
    f.mix(k.name);
    f.mix(static_cast<uint64_t>(k.dataClass));
    f.mix(static_cast<uint64_t>(k.lengthDriver));
    f.mix(static_cast<uint64_t>(k.scratchpadWords));
    f.mix(static_cast<uint64_t>(k.streams.size()));
    for (const auto &s : k.streams) {
        f.mix(static_cast<uint64_t>(s.dir));
        f.mix(static_cast<uint64_t>(s.recordWords));
        f.mix(static_cast<uint64_t>(s.conditional));
    }
    f.mix(static_cast<uint64_t>(k.ops.size()));
    for (const auto &op : k.ops) {
        f.mix(static_cast<uint64_t>(op.code));
        f.mix(static_cast<uint64_t>(op.args.size()));
        for (auto a : op.args)
            f.mix(static_cast<uint64_t>(a));
        f.mix(static_cast<uint64_t>(op.imm.bits));
        f.mix(static_cast<uint64_t>(op.stream));
        f.mix(static_cast<uint64_t>(op.field));
        f.mix(static_cast<uint64_t>(op.distance));
        f.mix(static_cast<uint64_t>(op.init.bits));
        f.mix(static_cast<uint64_t>(op.orderAfter.size()));
        for (auto a : op.orderAfter)
            f.mix(static_cast<uint64_t>(a));
    }
    return f.h;
}
} // namespace

uint64_t
fingerprint(const Kernel &k)
{
    // The memo holds a value computed from the immutable graph, so a
    // relaxed load that sees it needs no ordering; racing first calls
    // store the same value. A fingerprint that is 0 is recomputed.
    uint64_t h = k.fingerprint_.value.load(std::memory_order_relaxed);
    if (h == 0) {
        h = walk(k);
        k.fingerprint_.value.store(h, std::memory_order_relaxed);
    }
    return h;
}

} // namespace sps::kernel
