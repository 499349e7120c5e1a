/**
 * @file
 * The per-cluster machine resource and timing model used by the VLIW
 * scheduler. Built from a (C, N) machine size plus the VLSI cost model:
 * functional-unit counts come from the FU mix policy and the paper's
 * G* ratios and sit in one array indexed by isa::FuClass, and
 * operation timings are the isa::kOpTable base timings adjusted by the
 * Section 4 delay analysis (extra intracluster pipeline stages once the
 * switch traversal exceeds half a cycle; intercluster COMM latency from
 * the intercluster delay model).
 */
#ifndef SPS_SCHED_MACHINE_H
#define SPS_SCHED_MACHINE_H

#include <array>

#include "isa/opcode.h"
#include "kernel/ir.h"
#include "vlsi/cost_model.h"

namespace sps::sched {

/**
 * Scheduling-visible machine description for one cluster of a (C, N)
 * stream processor.
 */
class MachineModel
{
  public:
    /** Build from a machine size using the given cost model. */
    MachineModel(vlsi::MachineSize size, const vlsi::CostModel &model);

    /** Convenience: build with the default Imagine-parameter model. */
    static MachineModel forSize(vlsi::MachineSize size);

    const vlsi::MachineSize &size() const { return size_; }

    /** Number of units available for a functional-unit class. */
    int unitCount(isa::FuClass cls) const
    {
        return units_[static_cast<size_t>(cls)];
    }

    /**
     * The class whose issue slots an opcode occupies on this machine.
     * Divide/sqrt map to the multipliers when the cluster has no
     * dedicated DSQ unit.
     */
    isa::FuClass issueClass(isa::Opcode op) const;

    /** Adjusted operation timing for this machine size. */
    isa::OpTiming timing(isa::Opcode op) const;

    /** Extra pipeline stages added for intracluster switch traversal. */
    int intraExtraStages() const { return intraExtraStages_; }
    /** Operation latency (cycles) of an intercluster communication. */
    int commLatency() const { return commLatency_; }

    /**
     * True if the kernel's operations can all be issued on this
     * machine (e.g. an N=1 cluster has no multiplier).
     */
    bool canExecute(const kernel::Kernel &k) const;

  private:
    vlsi::MachineSize size_;
    /** Units per FuClass, indexed by the class (None has none). */
    std::array<int, isa::kNumFuClasses> units_{};
    int intraExtraStages_ = 0;
    int commLatency_ = 2;
};

} // namespace sps::sched

#endif // SPS_SCHED_MACHINE_H
