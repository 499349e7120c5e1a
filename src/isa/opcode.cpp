#include "isa/opcode.h"

#include "common/log.h"

namespace sps::isa {

const OpInfo &
opInfo(Opcode op)
{
    const auto i = static_cast<size_t>(op);
    if (i >= std::size(kOpTable))
        panic("bad opcode %d", static_cast<int>(op));
    return kOpTable[i];
}

std::string_view
mnemonic(Opcode op)
{
    const auto i = static_cast<size_t>(op);
    return i < std::size(kOpTable) ? kOpTable[i].mnemonic : "<bad>";
}

bool
isAluOp(Opcode op)
{
    FuClass cls = fuClassOf(op);
    return cls == FuClass::Adder || cls == FuClass::Multiplier ||
           cls == FuClass::Dsq;
}

bool
isSrfAccess(Opcode op)
{
    return fuClassOf(op) == FuClass::SbPort || op == Opcode::SbCondRead ||
           op == Opcode::SbCondWrite;
}

bool
isSpAccess(Opcode op)
{
    return fuClassOf(op) == FuClass::Scratchpad;
}

bool
isCommOp(Opcode op)
{
    return fuClassOf(op) == FuClass::Comm;
}

} // namespace sps::isa
