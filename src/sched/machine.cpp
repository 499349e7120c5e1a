#include "sched/machine.h"

#include <algorithm>

#include "isa/fu_mix.h"

namespace sps::sched {

using isa::FuClass;
using isa::Opcode;
using isa::OpTiming;

MachineModel::MachineModel(vlsi::MachineSize size,
                           const vlsi::CostModel &model)
    : size_(size)
{
    isa::FuMix mix = isa::mixFor(size.alusPerCluster);
    vlsi::DerivedCounts d = model.derive(size.alusPerCluster);
    auto set = [this](FuClass cls, int n) {
        units_[static_cast<size_t>(cls)] = n;
    };
    set(FuClass::Adder, mix.adders);
    set(FuClass::Multiplier, mix.multipliers);
    set(FuClass::Dsq, mix.dsq);
    set(FuClass::Scratchpad, d.nSp);
    set(FuClass::Comm, d.nComm);
    set(FuClass::SbPort, d.nClSb);
    intraExtraStages_ = model.intraPipeStages(size.alusPerCluster);
    // A sparse crossbar (connectivity < 0.5) occasionally needs a
    // second hop to reach an unconnected input; charge one extra
    // forwarding stage for it.
    if (model.params().xbarConnectivity < 0.5)
        intraExtraStages_ += 1;
    // COMM operation latency: the baseline 2-cycle operation plus the
    // pipelined intercluster traversal beyond the first cycle.
    commLatency_ = std::max(
        isa::baseTiming(Opcode::CommPerm).latency,
        1 + model.interCommCycles(size));
}

MachineModel
MachineModel::forSize(vlsi::MachineSize size)
{
    static const vlsi::CostModel model{vlsi::Params::imagine()};
    return MachineModel(size, model);
}

FuClass
MachineModel::issueClass(Opcode op) const
{
    FuClass cls = isa::fuClassOf(op);
    if (cls == FuClass::Dsq && unitCount(FuClass::Dsq) == 0)
        return FuClass::Multiplier;
    return cls;
}

OpTiming
MachineModel::timing(Opcode op) const
{
    OpTiming t = isa::baseTiming(op);
    FuClass cls = isa::fuClassOf(op);
    if (cls == FuClass::None)
        return t;
    if (cls == FuClass::Comm) {
        t.latency = commLatency_;
    } else if (cls == FuClass::Dsq && unitCount(FuClass::Dsq) == 0) {
        // Iterative divide/sqrt microcoded on a multiplier: double
        // latency, and the multiplier is blocked for the duration.
        t.latency *= 2;
        t.issueInterval = t.latency;
    }
    // Results of every real unit cross the intracluster switch; when
    // the traversal exceeds the half-cycle budget, every operation
    // gains pipeline stages (Section 5: "an additional pipeline stage
    // was added to ALU operations and streambuffer reads").
    t.latency += intraExtraStages_;
    return t;
}

bool
MachineModel::canExecute(const kernel::Kernel &k) const
{
    for (const auto &op : k.ops) {
        FuClass cls = issueClass(op.code);
        if (cls == FuClass::None)
            continue;
        if (unitCount(cls) < 1)
            return false;
    }
    return true;
}

} // namespace sps::sched
