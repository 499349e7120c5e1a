/**
 * @file
 * Table 3 of the paper: analytical area, delay, and energy models for a
 * stream processor as a function of C (arithmetic clusters) and N (ALUs
 * per cluster).
 *
 * The modeled machine is subdivided into the stream register file (SRF,
 * C banks plus streambuffers), the microcontroller (microcode storage
 * plus VLIW instruction distribution), the C SIMD arithmetic clusters
 * (LRFs, ALUs, scratchpad, intracluster switch), and the intercluster
 * switch. Components that do not scale with the number of ALUs (stream
 * controller, memory system) are excluded, as in the paper.
 *
 * Energy figures are per machine cycle at full ALU issue rate, so
 * energyPerAluOp() is the paper's "energy dissipated per ALU operation".
 *
 * Transcription note: the published equations were reconstructed from an
 * OCR'd copy with misplaced radicals; each method documents the reading
 * used, and tests/vlsi/cost_anchor_test.cpp pins the model to the
 * paper's quantitative anchor points.
 */
#ifndef SPS_VLSI_COST_MODEL_H
#define SPS_VLSI_COST_MODEL_H

#include "common/fields.h"
#include "vlsi/params.h"

namespace sps::vlsi {

/** A machine configuration point: C clusters of N ALUs. */
struct MachineSize
{
    int clusters = 8;      ///< C
    int alusPerCluster = 5; ///< N

    int totalAlus() const { return clusters * alusPerCluster; }
};

template <FieldsOf<MachineSize> S, typename F>
void
forEachField(S &m, F &&f)
{
    f("clusters", m.clusters);
    f("alus_per_cluster", m.alusPerCluster);
}

/**
 * Counts derived from N (first section of Table 3).
 */
struct DerivedCounts
{
    int nComm = 0;  ///< intercluster COMM units per cluster
    int nSp = 0;    ///< scratchpad units per cluster
    int nFu = 0;    ///< total functional units per cluster
    int nClSb = 0;  ///< cluster streambuffers
    int nSb = 0;    ///< total streambuffers
    int pe = 0;     ///< external (SB) ports per cluster
};

/** Component-wise area breakdown (grids). */
struct AreaBreakdown
{
    double srf = 0.0;          ///< C * per-bank SRF area
    double microcontroller = 0.0;
    double clusters = 0.0;     ///< C * per-cluster area
    double interclusterSwitch = 0.0;

    double total() const
    {
        return srf + microcontroller + clusters + interclusterSwitch;
    }
};

/** Component-wise energy-per-cycle breakdown (units of Ew). */
struct EnergyBreakdown
{
    double srf = 0.0;
    double microcontroller = 0.0;
    double clusters = 0.0;
    double interclusterComm = 0.0;

    double total() const
    {
        return srf + microcontroller + clusters + interclusterComm;
    }
};

/** Switch traversal delays (FO4). */
struct DelayResult
{
    double intraFo4 = 0.0;
    double interFo4 = 0.0;
};

/**
 * The analytical cost model. Stateless apart from the parameter set;
 * all queries are const and cheap.
 */
class CostModel
{
  public:
    explicit CostModel(Params params = Params::imagine())
        : p_(params)
    {}

    const Params &params() const { return p_; }

    /** Unit counts per cluster / machine for N ALUs per cluster. */
    DerivedCounts derive(int n) const;

    // --- Area (grids) ---

    /** Area of one SRF bank including its slice of all streambuffers. */
    double srfBankArea(int n) const;
    /** Area of one arithmetic cluster (LRFs, ALUs, SP, intra switch). */
    double clusterArea(int n) const;
    /** Area of the intracluster switch inside one cluster. */
    double intraSwitchArea(int n) const;
    /** Microcontroller area: microcode store + instruction distribution. */
    double microcontrollerArea(MachineSize size) const;
    /** Intercluster switch area. */
    double interSwitchArea(MachineSize size) const;
    /** Full per-component area breakdown. */
    AreaBreakdown area(MachineSize size) const;
    /** Total area divided by total ALU count. */
    double areaPerAlu(MachineSize size) const;

    // --- Delay (FO4) ---

    /** Worst-case intracluster switch traversal (wire + mux logic). */
    double intraDelayFo4(int n) const;
    /** Worst-case intercluster traversal (includes an intra traversal). */
    double interDelayFo4(MachineSize size) const;
    DelayResult delay(MachineSize size) const;

    /**
     * Pipeline stages needed for a traversal given the cycle time.
     * The Imagine design budgeted half a cycle for intracluster
     * communication; extra latency is pipelined in whole cycles.
     * Throws std::invalid_argument when the count is not finite or
     * does not fit an int (as for interCommCycles).
     */
    int intraPipeStages(int n) const;
    /** Whole cycles of operation latency for an intercluster COMM. */
    int interCommCycles(MachineSize size) const;

    // --- Energy (Ew, per cycle at full issue) ---

    /** Energy per bit crossing the intracluster switch. */
    double intraCommEnergyPerBit(int n) const;
    /** Energy per bit crossing the intercluster switch. */
    double interCommEnergyPerBit(MachineSize size) const;
    /** Per-cycle energy of one SRF bank at typical access rates. */
    double srfBankEnergy(int n) const;
    /** Per-cycle energy of one cluster at full issue. */
    double clusterEnergy(int n) const;
    /** Per-cycle microcontroller energy (fetch + distribution). */
    double microcontrollerEnergy(MachineSize size) const;
    /** Full per-component energy breakdown. */
    EnergyBreakdown energy(MachineSize size) const;
    /** Total per-cycle energy divided by ALU operations per cycle. */
    double energyPerAluOp(MachineSize size) const;

  private:
    /** Linear dimension of the cluster+SRF+COMM region (tracks). */
    double chipEdge(MachineSize size) const;

    Params p_;
};

} // namespace sps::vlsi

#endif // SPS_VLSI_COST_MODEL_H
