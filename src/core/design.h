/**
 * @file
 * Public facade: a StreamProcessorDesign ties together a machine size
 * (C clusters, N ALUs per cluster), the VLSI cost models, the kernel
 * compiler, and the stream-level simulator. This is the one-stop API
 * the examples and benchmarks use.
 */
#ifndef SPS_CORE_DESIGN_H
#define SPS_CORE_DESIGN_H

#include "sched/kernel_perf.h"
#include "sim/processor.h"
#include "vlsi/cost_model.h"
#include "vlsi/sweep.h"
#include "vlsi/tech.h"

namespace sps::core {

/** A fully-specified stream processor design point. */
class StreamProcessorDesign
{
  public:
    explicit StreamProcessorDesign(
        vlsi::MachineSize size,
        vlsi::Params params = vlsi::Params::imagine(),
        vlsi::Technology tech = vlsi::Technology::fortyFiveNm());

    const vlsi::MachineSize &size() const { return size_; }
    const vlsi::CostModel &costModel() const { return model_; }
    const vlsi::Technology &tech() const { return tech_; }
    /** Clock (GHz) of the technology at the params' t_cyc. */
    double clockGHz() const { return vlsi::clockGHz(tech_, params_); }
    const sched::MachineModel &machine() const { return machine_; }

    // --- VLSI costs ---

    vlsi::AreaBreakdown area() const { return model_.area(size_); }
    vlsi::EnergyBreakdown energy() const
    {
        return model_.energy(size_);
    }
    vlsi::DelayResult delay() const { return model_.delay(size_); }
    double areaPerAlu() const { return model_.areaPerAlu(size_); }
    double energyPerAluOp() const
    {
        return model_.energyPerAluOp(size_);
    }
    /** Absolute die area of the scaled components (mm^2). */
    double areaMm2() const;
    /** Power at full issue (watts). */
    double powerWatts() const;
    /** Peak arithmetic rate (GOPS at clockGHz()). */
    double peakGops() const;

    // --- Compilation and simulation ---

    /** Compile a kernel for this machine (memoized in the shared
     *  schedule cache; repeated calls never recompile). */
    sched::CompiledKernel compile(const kernel::Kernel &k) const;

    /**
     * Machine-wide kernel inner-loop throughput (ALU operations per
     * cycle across all clusters) from static analysis.
     */
    double kernelOpsPerCycle(const kernel::Kernel &k) const;

    /** A simulator instance configured for this design. */
    sim::StreamProcessor makeProcessor() const;

    /** Build and run a stream program on a fresh processor. */
    sim::SimResult simulate(const stream::StreamProgram &prog) const;

  private:
    vlsi::MachineSize size_;
    vlsi::Params params_;
    vlsi::Technology tech_;
    vlsi::CostModel model_;
    sched::MachineModel machine_;
};

} // namespace sps::core

#endif // SPS_CORE_DESIGN_H
