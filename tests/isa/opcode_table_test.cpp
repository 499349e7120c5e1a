/**
 * @file
 * Pins every static fact of every opcode at once: the ISA table's
 * columns, the interpreter's lane class and the four predicates, folded
 * in enum order into one FNV digest. A row edited, added, dropped or
 * reordered moves the digest; a deliberate change re-pins it here.
 */
#include "isa/opcode.h"

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "interp/lowered.h"

namespace sps::isa {
namespace {

TEST(OpcodeTableTest, EveryOpcodeMatchesPinnedDigest)
{
    Fnv f;
    f.mix(static_cast<uint64_t>(Opcode::NumOpcodes));
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        const auto op = static_cast<Opcode>(i);
        const OpTiming t = baseTiming(op);
        f.mix(std::string(mnemonic(op)));
        f.mix(static_cast<uint64_t>(fuClassOf(op)));
        f.mix(static_cast<uint64_t>(arity(op)));
        f.mix(static_cast<uint64_t>(t.latency));
        f.mix(static_cast<uint64_t>(t.issueInterval));
        f.mix(static_cast<uint64_t>(interp::laneClassOf(op)));
        f.mix(static_cast<uint64_t>(isAluOp(op)));
        f.mix(static_cast<uint64_t>(isSrfAccess(op)));
        f.mix(static_cast<uint64_t>(isSpAccess(op)));
        f.mix(static_cast<uint64_t>(isCommOp(op)));
    }
    EXPECT_EQ(f.h, 0x1d12c364904a5ab4ull);
}

} // namespace
} // namespace sps::isa
