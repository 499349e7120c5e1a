/**
 * @file
 * Per-run energy report: the measured counterpart of the analytical
 * vlsi::EnergyBreakdown. An energy::EnergyAccountant (energy/
 * accountant.h) maps the hardware-counter activity of one simulation
 * (sim::SimCounters) through the cost model's per-op / per-bit /
 * per-cycle energies into this per-component breakdown.
 *
 * Units: all energies are in Ew (the paper's normalized wire-track
 * propagation energy, Table 1); `ewToJoules` carries the process
 * conversion factor so every field can also be read in joules.
 *
 * Every component separates a *dynamic* term (energy proportional to
 * performed work: ALU ops, words moved, fetch cycles, DRAM accesses)
 * from an *idle/clock* term (energy charged for provisioned capacity
 * that went unused: idle issue slots, quiet SRF/COMM bandwidth, idle
 * channels). The components sum exactly to total() by construction;
 * the energy test suite enforces this at every swept design point.
 *
 * This header is pure data so sim/stats.h can embed a report on every
 * SimResult without a library dependency.
 */
#ifndef SPS_ENERGY_ENERGY_REPORT_H
#define SPS_ENERGY_ENERGY_REPORT_H

#include <cstdint>

#include "common/fields.h"

namespace sps::energy {

/** One component's energy split into dynamic and idle/clock terms. */
struct ComponentEnergy
{
    /** Energy of performed work (Ew). */
    double dynamicEw = 0.0;
    /** Idle/clock energy of unused provisioned capacity (Ew). */
    double idleEw = 0.0;

    double totalEw() const { return dynamicEw + idleEw; }
};

template <FieldsOf<ComponentEnergy> S, typename F>
void
forEachField(S &c, F &&f)
{
    f("dyn_ew", c.dynamicEw);
    f("idle_ew", c.idleEw);
}

/** Per-component energy breakdown of one simulated run. */
struct EnergyReport
{
    /** False until an EnergyAccountant filled the report (a raw
     *  executeProgram() result carries an empty report). */
    bool valid = false;

    // --- Components (mirror vlsi::EnergyBreakdown, plus DRAM). ---
    /** SRF storage arrays + streambuffers, per word moved. */
    ComponentEnergy srf;
    /** Cluster datapaths: ALUs, LRFs, scratchpads, intracluster
     *  switch traversals. */
    ComponentEnergy clusters;
    /** Microcode fetch + VLIW distribution, per busy cycle. */
    ComponentEnergy microcontroller;
    /** Intercluster switch traversals, per COMM word. */
    ComponentEnergy interclusterComm;
    /** External DRAM accesses + channel pins. The analytical model
     *  excludes the memory system; this term is a reproduction
     *  extension and is reported separately so the paper-scope sum
     *  (scaledTotalEw) stays comparable to Figures 7/10. */
    ComponentEnergy dram;

    // --- Denominators for the summary rates. ---
    int64_t cycles = 0;
    int64_t aluOps = 0;
    /** Words the application stored back to memory (its outputs). */
    int64_t outputWords = 0;

    // --- Process conversion (vlsi::Technology). ---
    /** Joules per Ew (ewFj * 1e-15). */
    double ewToJoules = 0.0;
    /** Clock frequency used for average-power conversion (GHz). */
    double clockGHz = 0.0;

    /** Total over all components; equals the exact component sum. */
    double
    totalEw() const
    {
        return srf.totalEw() + clusters.totalEw() +
               microcontroller.totalEw() + interclusterComm.totalEw() +
               dram.totalEw();
    }

    /** Total over the components the paper's model scales (no DRAM):
     *  the measured quantity comparable to Figures 7/10/12. */
    double
    scaledTotalEw() const
    {
        return srf.totalEw() + clusters.totalEw() +
               microcontroller.totalEw() + interclusterComm.totalEw();
    }

    double totalJoules() const { return totalEw() * ewToJoules; }

    /** Measured energy per executed ALU operation (Ew). */
    double
    energyPerAluOpEw() const
    {
        return aluOps > 0 ? totalEw() / static_cast<double>(aluOps)
                          : 0.0;
    }

    /** Paper-scope (no DRAM) energy per executed ALU operation. */
    double
    scaledEnergyPerAluOpEw() const
    {
        return aluOps > 0
                   ? scaledTotalEw() / static_cast<double>(aluOps)
                   : 0.0;
    }

    /** Energy per application output word stored to memory (Ew). */
    double
    energyPerOutputWordEw() const
    {
        return outputWords > 0
                   ? totalEw() / static_cast<double>(outputWords)
                   : 0.0;
    }

    /** Average power over the run (watts) at clockGHz. */
    double
    averagePowerWatts() const
    {
        if (cycles <= 0 || clockGHz <= 0.0)
            return 0.0;
        double seconds =
            static_cast<double>(cycles) / (clockGHz * 1e9);
        return totalJoules() / seconds;
    }
};

template <FieldsOf<EnergyReport> S, typename F>
void
forEachField(S &e, F &&f)
{
    f("valid", e.valid);
    f("srf", e.srf);
    f("clusters", e.clusters);
    f("uc", e.microcontroller);
    f("comm", e.interclusterComm);
    f("dram", e.dram);
    f("cycles", e.cycles);
    f("alu_ops", e.aluOps);
    f("output_words", e.outputWords);
    f("ew_to_joules", e.ewToJoules);
    f("clock_ghz", e.clockGHz);
}

} // namespace sps::energy

#endif // SPS_ENERGY_ENERGY_REPORT_H
