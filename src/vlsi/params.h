/**
 * @file
 * Table 1 of the paper: process-independent VLSI model parameters,
 * measured from the Imagine stream processor prototype plus empirically
 * determined kernel characteristics.
 *
 * Units follow the paper:
 *  - areas are in "grids" (squared wire tracks),
 *  - datapath widths/heights are in wire tracks,
 *  - delays are in FO4 (fan-out-of-4 inverter delays),
 *  - energies are normalized to Ew, the wire propagation energy per
 *    wire track (0.093 fJ in 0.18um).
 */
#ifndef SPS_VLSI_PARAMS_H
#define SPS_VLSI_PARAMS_H

#include "common/fields.h"

namespace sps::vlsi {

/**
 * The full Table 1 parameter set. Defaults are the published values.
 */
struct Params
{
    // --- Measured building-block parameters (Imagine prototype) ---

    /** Area of 1 bit of SRAM used for SRF or microcontroller (grids). */
    double aSram = 16.1;
    /** Area per SB width (grids per bit of streambuffer width). */
    double aSb = 2161.8;
    /** Datapath width of an ALU (tracks). */
    double wAlu = 876.9;
    /** Datapath width of 2 LRFs (tracks). */
    double wLrf = 437.0;
    /** Scratchpad datapath width (tracks). */
    double wSp = 708.9;
    /** Datapath height for all cluster components (tracks). */
    double h = 1400.0;
    /** Wire propagation velocity (tracks per FO4) with repeatering. */
    double v0 = 1400.0;
    /** FO4 delays per clock cycle (Imagine-style standard-cell design). */
    double tCyc = 45.0;
    /** Delay of a 2:1 mux (FO4). */
    double tMux = 2.0;
    /** Normalized wire propagation energy per wire track. */
    double eW = 1.0;
    /** Energy of an ALU operation (normalized to Ew). */
    double eAlu = 2.0e6;
    /** SRAM access energy per bit of capacity (normalized to Ew). */
    double eSram = 8.7;
    /** Energy of 1 bit of SB access (normalized to Ew). */
    double eSb = 1936.0;
    /** LRF access energy (normalized to Ew). */
    double eLrf = 8.9e5;
    /** Scratchpad access energy (normalized to Ew). */
    double eSp = 1.6e6;
    /** External memory latency (cycles). */
    double tMem = 55.0;
    /** Data width of the architecture (bits). */
    int b = 32;

    // --- Empirical kernel-derived parameters ---

    /** Width of an SRF bank per ALU (words). */
    double gSrf = 0.5;
    /** Average SB accesses per ALU operation in typical kernels. */
    double gSb = 0.2;
    /** COMM units required per ALU. */
    double gComm = 0.2;
    /** SP units required per ALU. */
    double gSp = 0.2;
    /** Initial width of VLIW instructions (bits). */
    double i0 = 196.0;
    /** Additional VLIW instruction width per functional unit (bits). */
    double iN = 40.0;
    /** Initial (fixed) number of cluster SBs. */
    double lC = 6.0;
    /** Number of non-cluster SBs (memory/host/microcontroller). */
    double lO = 6.0;
    /** Additional cluster SBs required per ALU. */
    double lN = 0.2;
    /** SRF capacity per ALU per cycle of memory latency (words). */
    double rM = 20.0;
    /** VLIW instructions of microcode storage required. */
    double rUc = 2048.0;

    // --- Reconstruction calibration weights ---
    //
    // The published Table 3 equations could not be transcribed exactly
    // (misplaced radicals in the source text). These weights scale the
    // reconstructed switch/distribution terms and were fit once against
    // the paper's quantitative anchors (Section 4 prose; see DESIGN.md
    // and tests/vlsi/cost_anchor_test.cpp). They are deliberately
    // visible so sensitivity studies can sweep them.

    /** Weight on intercluster switch area. */
    double kCommArea = 0.75;
    /** Weight on intercluster communication energy. */
    double kCommEnergy = 0.70;
    /** Weight on intracluster switch traversal energy in clusters. */
    double kIntraEnergy = 0.90;
    /** Weight on microcontroller instruction-distribution energy. */
    double kDistEnergy = 0.95;

    // --- Extensions (Section 6 future work) ---

    /**
     * Crossbar connectivity: the fraction of intracluster and
     * intercluster cross-points populated. 1.0 is the paper's fully
     * connected switch; lower values model the "non-fully-connected
     * crossbars" named as future work, trading switch area/energy/
     * delay for an operation-latency penalty the scheduler absorbs
     * (see sched::MachineModel).
     */
    double xbarConnectivity = 1.0;

    /** The published Imagine-derived defaults. */
    static Params imagine() { return Params{}; }

    /**
     * A full-custom design point (Section 4.3): ~20 FO4 clocks
     * instead of the 45 FO4 standard-cell methodology. Relative area
     * and energy results are unchanged; communication latencies in
     * cycles grow.
     */
    static Params
    custom20Fo4()
    {
        Params p;
        p.tCyc = 20.0;
        return p;
    }

    /** The future-work sparse-crossbar variant. */
    static Params
    sparseSwitch(double connectivity)
    {
        Params p;
        p.xbarConnectivity = connectivity;
        return p;
    }
};

/** Field table (common/fields.h). Declaration order except `b`, which
 *  goes last: the wire and the config hash carry the doubles first. */
template <FieldsOf<Params> S, typename F>
void
forEachField(S &p, F &&f)
{
    f("a_sram", p.aSram);
    f("a_sb", p.aSb);
    f("w_alu", p.wAlu);
    f("w_lrf", p.wLrf);
    f("w_sp", p.wSp);
    f("h", p.h);
    f("v0", p.v0);
    f("t_cyc", p.tCyc);
    f("t_mux", p.tMux);
    f("e_w", p.eW);
    f("e_alu", p.eAlu);
    f("e_sram", p.eSram);
    f("e_sb", p.eSb);
    f("e_lrf", p.eLrf);
    f("e_sp", p.eSp);
    f("t_mem", p.tMem);
    f("g_srf", p.gSrf);
    f("g_sb", p.gSb);
    f("g_comm", p.gComm);
    f("g_sp", p.gSp);
    f("i0", p.i0);
    f("i_n", p.iN);
    f("l_c", p.lC);
    f("l_o", p.lO);
    f("l_n", p.lN);
    f("r_m", p.rM);
    f("r_uc", p.rUc);
    f("k_comm_area", p.kCommArea);
    f("k_comm_energy", p.kCommEnergy);
    f("k_intra_energy", p.kIntraEnergy);
    f("k_dist_energy", p.kDistEnergy);
    f("xbar_connectivity", p.xbarConnectivity);
    f("b", p.b);
}

} // namespace sps::vlsi

#endif // SPS_VLSI_PARAMS_H
