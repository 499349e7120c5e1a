/**
 * @file
 * Technology scaling helpers. The paper's model parameters are process
 * independent (grids / tracks / FO4 / Ew); this header converts them to
 * absolute quantities for a concrete process node, and projects the
 * 2007-era 45nm target used in the performance evaluation (Section 5).
 *
 * A technology holds only what the process fixes. The clock comes from
 * the FO4 delay and Table 1's t_cyc (clockGHz()); memory bandwidth is
 * the memory system's peak in words per cycle
 * (mem::StreamMemConfig::peakWordsPerCycle), and the host channel's
 * cost is sim::SimConfig::hostIssueCycles per stream instruction.
 */
#ifndef SPS_VLSI_TECH_H
#define SPS_VLSI_TECH_H

#include <string>

#include "common/fields.h"
#include "vlsi/params.h"

namespace sps::vlsi {

/**
 * A concrete process technology. The defaults describe the 0.18um
 * process of the Imagine prototype; fortyFiveNm() gives the paper's
 * 2007 projection.
 */
struct Technology
{
    /** Human-readable node name. */
    std::string name = "180nm";
    /** Metal wire track pitch (um). */
    double trackPitchUm = 0.80;
    /** Delay of one FO4 inverter (ps). */
    double fo4Ps = 90.0;
    /** Wire propagation energy per track, Ew (fJ). */
    double ewFj = 0.093;

    /** Convert an area in grids to mm^2. */
    double
    gridsToMm2(double grids) const
    {
        double pitch_mm = trackPitchUm * 1e-3;
        return grids * pitch_mm * pitch_mm;
    }

    /** Convert a normalized (Ew) energy to picojoules. */
    double
    normEnergyToPj(double e_norm) const
    {
        return e_norm * ewFj * 1e-3;
    }

    /** Power in watts given per-cycle energy in Ew units at a clock
     *  of `clock_ghz` (see clockGHz()). */
    double
    powerWatts(double energy_per_cycle_norm, double clock_ghz) const
    {
        // pJ per cycle * GHz = mW.
        return normEnergyToPj(energy_per_cycle_norm) * clock_ghz * 1e-3;
    }

    /** The Imagine prototype's 0.18um process. */
    static Technology imagine180() { return Technology{}; }

    /**
     * The 45nm 2007 projection of Section 5: 1 GHz at Table 1's 45 FO4
     * t_cyc. FO4 delay scales with drawn gate length. Ew scales with wire
     * pitch (x0.25) and supply voltage squared (1.8 V -> ~0.65 V for
     * the 2007 low-power node, x0.13), calibrated so the model
     * reproduces the paper's Section 6 power claim (a 1280-ALU
     * machine dissipating under 10 W).
     */
    static Technology
    fortyFiveNm()
    {
        Technology t;
        t.name = "45nm";
        t.trackPitchUm = 0.20;   // 4x pitch shrink from 0.18um rules
        t.fo4Ps = 22.2;          // 45 FO4 => 1.0 GHz
        t.ewFj = 0.0012;         // pitch x voltage-squared scaling
        return t;
    }
};

/**
 * Clock frequency (GHz) of a design pipelined at `p.tCyc` FO4 per
 * cycle in technology `t`: 1 GHz for the 45nm node at the default 45
 * FO4, 2.25 GHz for Params::custom20Fo4(). The only place the clock is
 * computed.
 */
inline double
clockGHz(const Technology &t, const Params &p)
{
    return 1000.0 / (t.fo4Ps * p.tCyc);
}

template <FieldsOf<Technology> S, typename F>
void
forEachField(S &t, F &&f)
{
    f("name", t.name);
    f("track_pitch_um", t.trackPitchUm);
    f("fo4_ps", t.fo4Ps);
    f("ew_fj", t.ewFj);
}

} // namespace sps::vlsi

#endif // SPS_VLSI_TECH_H
