#include "vlsi/cost_model.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/log.h"

namespace sps::vlsi {

namespace {
[[noreturn]] void
notAnInt(double v, const char *what)
{
    char msg[160];
    std::snprintf(msg, sizeof msg, "bad params: %s of %g is not an int",
                  what, v);
    throw std::invalid_argument(msg);
}

/** `v` (a whole number) as an int. A client's params reach every
 *  caller, so a count that is not finite or overflows an int (a huge
 *  G ratio, v0 = 0, a tiny t_cyc) throws instead of casting
 *  undefined; NaN fails too. */
int
checkedInt(double v, const char *what)
{
    if (!(std::fabs(v) <= std::numeric_limits<int>::max()))
        notAnInt(v, what);
    return static_cast<int>(v);
}
} // namespace

DerivedCounts
CostModel::derive(int n) const
{
    SPS_ASSERT(n >= 1, "need at least one ALU per cluster, got %d", n);
    DerivedCounts d;
    // A cluster always contains at least one COMM and one SP unit; the
    // G* ratios add more as N grows. The ceiling is what produces the
    // small-N overhead visible in Figure 6 ("the COMM and SP units
    // contribute to larger area per ALU"). The sums are taken in
    // double too, so no count overflows an int on the way.
    d.nComm =
        std::max(1, checkedInt(std::ceil(p_.gComm * n), "COMM units"));
    d.nSp = std::max(1, checkedInt(std::ceil(p_.gSp * n), "SP units"));
    d.nFu = checkedInt(static_cast<double>(n) + d.nSp + d.nComm,
                       "functional units");
    d.nClSb = checkedInt(std::ceil(p_.lC + p_.lN * n),
                         "cluster streambuffers");
    d.nSb = checkedInt(std::trunc(p_.lO) + d.nClSb, "streambuffers");
    d.pe = d.nClSb;
    return d;
}

// --------------------------------------------------------------------
// Area
// --------------------------------------------------------------------

double
CostModel::srfBankArea(int n) const
{
    DerivedCounts d = derive(n);
    // Stream storage: rm*T*N words of b bits per bank, single-ported
    // SRAM. Streambuffers: each of the NSB buffers double-buffers two
    // blocks of GSRF*N*b bits in every bank; ASB is the (much larger)
    // per-bit cost of the dual-ported, widely-muxed SB storage.
    double storage = p_.rM * p_.tMem * n * p_.b * p_.aSram;
    double sbs = 2.0 * p_.gSrf * n * p_.b * d.nSb * p_.aSb;
    return storage + sbs;
}

double
CostModel::intraSwitchArea(int n) const
{
    DerivedCounts d = derive(n);
    double nfu = d.nFu;
    double rnfu = std::sqrt(nfu);
    double b = p_.b;
    // Grid floorplan (Figure 5): sqrt(NFU) x sqrt(NFU) array of FUs.
    // Rows carry one b-bit output bus per FU in the row; columns carry
    // one b-bit input bus per LRF in the column. First term: bus tracks
    // over the FU datapaths and cross-points; second term: external
    // port (Pe) buses entering the grid. A non-fully-connected
    // crossbar (Section 6 future work) populates only a fraction of
    // the cross-points and needs proportionally fewer bus tracks.
    double conn = p_.xbarConnectivity;
    double core = conn * nfu * (rnfu * b) *
                  (2.0 * rnfu * b + p_.h + 2.0 * p_.wAlu + 2.0 * p_.wLrf);
    double ports = rnfu * (3.0 * rnfu * b + p_.h + p_.wAlu + p_.wLrf) *
                   d.pe * b;
    return core + ports;
}

double
CostModel::clusterArea(int n) const
{
    DerivedCounts d = derive(n);
    // Every FU (ALU, SP, COMM) is fed by two LRFs; only the N ALUs and
    // NSP scratchpads add their own datapath area (the COMM unit is
    // just bus drivers, accounted in the switches).
    double lrfs = d.nFu * p_.wLrf * p_.h;
    double alus = n * p_.wAlu * p_.h;
    double sps = d.nSp * p_.wSp * p_.h;
    return lrfs + alus + sps + intraSwitchArea(n);
}

double
CostModel::interSwitchArea(MachineSize size) const
{
    DerivedCounts d = derive(size.alusPerCluster);
    double c = size.clusters;
    double rc = std::sqrt(c);
    double busw = d.nComm * p_.b * rc; // bus tracks along one grid edge
    // Clusters sit in a sqrt(C) x sqrt(C) grid (Figure 4). Each row and
    // column carries sqrt(C)*NCOMM b-bit buses past every cluster+SRF
    // bank, plus the cross-point area where rows meet columns.
    double aclst = clusterArea(size.alusPerCluster);
    double asrf = srfBankArea(size.alusPerCluster);
    return p_.xbarConnectivity * p_.kCommArea * c * d.nComm * p_.b *
           rc * (busw + 2.0 * std::sqrt(aclst) + std::sqrt(asrf));
}

double
CostModel::microcontrollerArea(MachineSize size) const
{
    DerivedCounts d = derive(size.alusPerCluster);
    double ibits = p_.i0 + p_.iN * d.nFu;
    double storage = p_.rUc * ibits * p_.aSram;
    // Instruction distribution: IN*NFU control bits are driven down
    // sqrt(C) column trunks and across sqrt(C) rows of the cluster
    // grid; total wire length ~ sqrt(C) * chip edge, one track each.
    double distribution =
        p_.iN * d.nFu * std::sqrt(static_cast<double>(size.clusters)) *
        chipEdge(size);
    return storage + distribution;
}

double
CostModel::chipEdge(MachineSize size) const
{
    double c = size.clusters;
    double aclst = clusterArea(size.alusPerCluster);
    double asrf = srfBankArea(size.alusPerCluster);
    return std::sqrt(c * aclst + c * asrf + interSwitchArea(size));
}

AreaBreakdown
CostModel::area(MachineSize size) const
{
    AreaBreakdown a;
    a.srf = size.clusters * srfBankArea(size.alusPerCluster);
    a.clusters = size.clusters * clusterArea(size.alusPerCluster);
    a.interclusterSwitch = interSwitchArea(size);
    a.microcontroller = microcontrollerArea(size);
    return a;
}

double
CostModel::areaPerAlu(MachineSize size) const
{
    return area(size).total() / size.totalAlus();
}

// --------------------------------------------------------------------
// Delay
// --------------------------------------------------------------------

double
CostModel::intraDelayFo4(int n) const
{
    DerivedCounts d = derive(n);
    double nfu = d.nFu;
    double rnfu = std::sqrt(nfu);
    double b = p_.b;
    // Wire: worst case crosses the cluster's width plus height.
    double wire = rnfu *
                  (p_.h + 2.0 * rnfu * b + p_.wAlu + p_.wLrf + rnfu * b) /
                  p_.v0;
    // Logic: a sqrt(NFU):1 mux per row-column intersection
    // (log2(sqrt(NFU)) 2:1 levels) plus one extra 2:1 mux per row
    // traversed down the column. Sparse crossbars select among fewer
    // sources per intersection.
    double fan = std::max(2.0, rnfu * p_.xbarConnectivity);
    double logic = p_.tMux * (std::log2(fan) + rnfu);
    return wire + logic;
}

double
CostModel::interDelayFo4(MachineSize size) const
{
    DerivedCounts d = derive(size.alusPerCluster);
    double c = size.clusters;
    // Crossing the cluster grid horizontally then vertically, plus the
    // source cluster's intracluster traversal, plus mux logic to select
    // among C*NCOMM row buses and sqrt(C) column hops.
    double wire = 2.0 * chipEdge(size) / p_.v0;
    double logic = p_.tMux * (std::log2(c * d.nComm) + std::sqrt(c));
    return intraDelayFo4(size.alusPerCluster) + wire + logic;
}

DelayResult
CostModel::delay(MachineSize size) const
{
    return DelayResult{intraDelayFo4(size.alusPerCluster),
                       interDelayFo4(size)};
}

int
CostModel::intraPipeStages(int n) const
{
    // Half a cycle is budgeted for intracluster communication (as in the
    // Imagine design); each further cycle of delay, whole or part,
    // becomes an extra pipeline stage on ALU operations and
    // streambuffer reads.
    double budget = p_.tCyc / 2.0;
    double t = intraDelayFo4(n);
    if (t <= budget)
        return 0;
    return checkedInt(std::ceil((t - budget) / p_.tCyc),
                      "intracluster cycles beyond half a cycle");
}

int
CostModel::interCommCycles(MachineSize size) const
{
    // Intercluster traversals are fully pipelined in whole cycles.
    return std::max(
        1, checkedInt(std::ceil(interDelayFo4(size) / p_.tCyc),
                      "intercluster cycles"));
}

// --------------------------------------------------------------------
// Energy
// --------------------------------------------------------------------

double
CostModel::intraCommEnergyPerBit(int n) const
{
    DerivedCounts d = derive(n);
    double rnfu = std::sqrt(static_cast<double>(d.nFu));
    double b = p_.b;
    // Row bus across the grid width plus column bus down the height;
    // bus-track contributions shrink with crossbar connectivity.
    double conn = p_.xbarConnectivity;
    return p_.eW * (rnfu * (p_.h + conn * 2.0 * rnfu * b) +
                    2.0 * rnfu *
                        (p_.wAlu + p_.wLrf + conn * rnfu * b));
}

double
CostModel::interCommEnergyPerBit(MachineSize size) const
{
    DerivedCounts d = derive(size.alusPerCluster);
    double rc = std::sqrt(static_cast<double>(size.clusters));
    double aclst = clusterArea(size.alusPerCluster);
    double asrf = srfBankArea(size.alusPerCluster);
    // One row bus and one destination-column bus switch, each running
    // past sqrt(C) clusters, SRF banks, and the COMM bus tracks.
    return p_.eW * 2.0 * rc *
           (std::sqrt(aclst) + std::sqrt(asrf) +
            p_.xbarConnectivity * d.nComm * p_.b * rc);
}

double
CostModel::srfBankEnergy(int n) const
{
    DerivedCounts d = derive(n);
    (void)d;
    // Stream storage: GSB*N words/cycle move through blocks of
    // GSRF*N words, i.e. GSB/GSRF array accesses per cycle, each
    // costing ESRAM per bit of capacity. SB side: GSB*N*b bits/cycle
    // are read or written; half of the accesses (the reads) also cross
    // the intracluster switch.
    double storage = p_.rM * p_.tMem * n * p_.b * p_.eSram *
                     (p_.gSb / p_.gSrf);
    double sbs = p_.gSb * n * p_.b *
                 (p_.eSb + intraCommEnergyPerBit(n) / 2.0);
    return storage + sbs;
}

double
CostModel::clusterEnergy(int n) const
{
    DerivedCounts d = derive(n);
    // Per cycle at full issue: every FU reads its LRFs, the N ALUs each
    // perform an operation, the SPs are accessed, and every FU result
    // crosses the intracluster switch.
    return d.nFu * p_.eLrf + n * p_.eAlu + d.nSp * p_.eSp +
           p_.kIntraEnergy * d.nFu * p_.b * intraCommEnergyPerBit(n);
}

double
CostModel::microcontrollerEnergy(MachineSize size) const
{
    DerivedCounts d = derive(size.alusPerCluster);
    double ibits = p_.i0 + p_.iN * d.nFu;
    // One VLIW fetch per cycle from the full microcode array, plus
    // driving IN*NFU control wires across the cluster grid.
    double fetch = p_.rUc * ibits * p_.eSram;
    double distribution =
        p_.kDistEnergy * p_.iN * d.nFu * p_.eW *
        std::sqrt(static_cast<double>(size.clusters)) * chipEdge(size);
    return fetch + distribution;
}

EnergyBreakdown
CostModel::energy(MachineSize size) const
{
    EnergyBreakdown e;
    e.srf = size.clusters * srfBankEnergy(size.alusPerCluster);
    e.clusters = size.clusters * clusterEnergy(size.alusPerCluster);
    e.microcontroller = microcontrollerEnergy(size);
    // GCOMM*N*C intercluster words move per N*C ALU operations.
    e.interclusterComm = p_.kCommEnergy * p_.gComm * size.alusPerCluster *
                         size.clusters * p_.b *
                         interCommEnergyPerBit(size);
    return e;
}

double
CostModel::energyPerAluOp(MachineSize size) const
{
    return energy(size).total() / size.totalAlus();
}

} // namespace sps::vlsi
