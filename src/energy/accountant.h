/**
 * @file
 * The energy accountant: bridges the analytical VLSI energy model
 * (vlsi::CostModel, Table 3) and the measured activity of a simulated
 * run (sim::SimCounters) into a per-component energy::EnergyReport --
 * the same activity-counter energy accounting SCALE-Sim style cost
 * models use for accelerators.
 *
 * Method: the cost model's per-cycle component energies are stated at
 * full issue rate (every ALU issues, gSb*N words/cycle per SRF bank,
 * gComm*N COMM words/cycle per cluster). The accountant decomposes
 * them into per-activity rates (Ew per ALU op, per FU result, per SRF
 * word, per COMM word, per microcontroller fetch cycle) and charges
 * each run for the activity its counters actually recorded. At
 * exactly full issue the dynamic terms reproduce the analytical
 * breakdown identically (asserted by tests/energy/accountant_test.cpp);
 * below full issue the difference shows up explicitly as idle/clock
 * energy: unused capacity (idle issue slots, quiet SRF/COMM
 * bandwidth, a parked microcontroller) is charged `idleFraction` of
 * its active rate, modeling clock and control power that does not
 * gate off.
 *
 * DRAM is a reproduction extension (the paper's model excludes the
 * memory system): accesses are charged per word split by row
 * hit/miss, channels per pin-busy cycle, with order-of-magnitude
 * defaults documented on DramEnergyParams. The report keeps DRAM
 * separate so the paper-scope sum stays comparable to Figures 7/10.
 *
 * An accountant is immutable after construction; one instance may be
 * shared by concurrent simulations on the evaluation engine (the TSan
 * CI job covers this).
 */
#ifndef SPS_ENERGY_ACCOUNTANT_H
#define SPS_ENERGY_ACCOUNTANT_H

#include "common/fields.h"
#include "energy/energy_report.h"
#include "sim/stats.h"
#include "trace/tracer.h"
#include "vlsi/cost_model.h"
#include "vlsi/tech.h"

namespace sps::energy {

/**
 * DRAM energy extension parameters, in Ew like every other energy in
 * the model. Defaults are order-of-magnitude values chosen relative
 * to the Table-1 building blocks (an ALU op is 2e6 Ew): a row-hit
 * column access per 32-bit word ~5x an ALU op, a row miss ~4x a hit
 * (activate + precharge + column), channel I/O ~1e6 Ew per busy
 * cycle. They are deliberately visible knobs, not calibrated claims.
 */
struct DramEnergyParams
{
    /** Ew per word access that hits an open row. */
    double rowHitEnergyEw = 1.0e7;
    /** Ew per word access that misses (activate + column). */
    double rowMissEnergyEw = 4.0e7;
    /** Ew per channel pin-busy cycle (I/O + control). */
    double channelBusyEnergyEw = 1.0e6;
};

template <FieldsOf<DramEnergyParams> S, typename F>
void
forEachField(S &d, F &&f)
{
    f("row_hit_energy_ew", d.rowHitEnergyEw);
    f("row_miss_energy_ew", d.rowMissEnergyEw);
    f("channel_busy_energy_ew", d.channelBusyEnergyEw);
}

/** Accountant configuration. */
struct AccountantConfig
{
    /**
     * Idle/clock energy of unused provisioned capacity, as a fraction
     * of the capacity's active rate (clock trees and control that do
     * not gate off). 0 makes the report purely activity-proportional.
     */
    double idleFraction = 0.05;
    DramEnergyParams dram;
};

template <FieldsOf<AccountantConfig> S, typename F>
void
forEachField(S &a, F &&f)
{
    f("idle_fraction", a.idleFraction);
    f("dram", a.dram);
}

/** Per-activity energy rates derived from the cost model (Ew). */
struct EnergyRates
{
    /** Per executed ALU operation (EALU). */
    double aluOp = 0.0;
    /** Per FU result: two-LRF read plus one intracluster switch
     *  traversal of b bits. */
    double fuOp = 0.0;
    /** Per scratchpad access. */
    double spOp = 0.0;
    /** Per word into or out of the SRF (storage array share plus
     *  streambuffer access plus half an intracluster traversal). */
    double srfWord = 0.0;
    /** Per intercluster COMM word (b bits across the switch). */
    double interCommWord = 0.0;
    /** Per microcontroller busy cycle (fetch + distribution). */
    double ucBusyCycle = 0.0;

    // --- Provisioned capacity per machine cycle (idle accounting). ---
    double aluSlotsPerCycle = 0.0;      ///< C * N
    double srfPeakWordsPerCycle = 0.0;  ///< gSb * N * C
    double interPeakWordsPerCycle = 0.0;///< gComm * N * C
    /** Full-rate cluster energy per ALU issue slot (idle basis). */
    double clusterSlotFullRate = 0.0;
};

template <FieldsOf<EnergyRates> S, typename F>
void
forEachField(S &r, F &&f)
{
    f("alu_op", r.aluOp);
    f("fu_op", r.fuOp);
    f("sp_op", r.spOp);
    f("srf_word", r.srfWord);
    f("inter_comm_word", r.interCommWord);
    f("uc_busy_cycle", r.ucBusyCycle);
    f("alu_slots_per_cycle", r.aluSlotsPerCycle);
    f("srf_peak_words_per_cycle", r.srfPeakWordsPerCycle);
    f("inter_peak_words_per_cycle", r.interPeakWordsPerCycle);
    f("cluster_slot_full_rate", r.clusterSlotFullRate);
}

class EnergyAccountant
{
  public:
    /**
     * Derive the rates from `model`. Throws std::invalid_argument
     * unless every rate and every DRAM energy is finite and not
     * negative and the idle fraction lies in [0, 1]: anything else
     * would charge a negative or NaN energy.
     */
    EnergyAccountant(const vlsi::CostModel &model,
                     vlsi::MachineSize size, vlsi::Technology tech,
                     AccountantConfig cfg = {});

    /** Map one run's counters into a per-component energy report. */
    EnergyReport account(const sim::SimResult &r) const;

    const EnergyRates &rates() const { return rates_; }
    const AccountantConfig &config() const { return cfg_; }
    vlsi::MachineSize size() const { return size_; }

  private:
    vlsi::MachineSize size_;
    vlsi::Technology tech_;
    /** vlsi::clockGHz of the technology and the model's params. */
    double clockGHz_;
    AccountantConfig cfg_;
    EnergyRates rates_;
};

/**
 * Emit Chrome counter-phase power tracks for a finished run onto a
 * tracer: `power_kernel_mw` (clusters + microcontroller + SRF +
 * intercluster COMM, spread over the run's kernel intervals),
 * `power_mem_mw` (DRAM, spread over the memory-transfer intervals),
 * and `power_total_mw` (their sum plus the uniform idle/clock
 * baseline), sampled at every interval boundary of the op timeline.
 * Requires a filled (valid) energy report; no-ops otherwise.
 */
void emitPowerCounters(const sim::SimResult &r, trace::Tracer &tracer);

} // namespace sps::energy

#endif // SPS_ENERGY_ACCOUNTANT_H
