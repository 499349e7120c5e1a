#include "energy/accountant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bottleneck.h"

namespace sps::energy {

namespace {
/** Throws unless every double of `v`'s field table is finite and not
 *  negative. Written so that NaN fails. */
template <typename T>
void
requireNonNegative(const T &v, const char *what)
{
    forEachField(v, [what](const char *name, double x) {
        if (!(std::isfinite(x) && x >= 0))
            throw std::invalid_argument(
                std::string("bad energy config: ") + what + " " + name +
                " must be finite and not negative, got " +
                std::to_string(x));
    });
}
} // namespace

EnergyAccountant::EnergyAccountant(const vlsi::CostModel &model,
                                   vlsi::MachineSize size,
                                   vlsi::Technology tech,
                                   AccountantConfig cfg)
    : size_(size), tech_(tech),
      clockGHz_(vlsi::clockGHz(tech, model.params())), cfg_(cfg)
{
    const vlsi::Params &p = model.params();
    const int n = size.alusPerCluster;
    const double intraE = model.intraCommEnergyPerBit(n);

    // Per-activity rates, factored out of the Table 3 per-cycle
    // component energies so that full-rate activity reproduces them
    // exactly (see accountant_test.cpp):
    //   clusterEnergy(n)      == n*aluOp + nFu*fuOp + nSp*spOp  per cycle
    //   C * srfBankEnergy(n)  == gSb*N*C words * srfWord        per cycle
    //   inter-COMM per cycle  == gComm*N*C words * interCommWord
    rates_.aluOp = p.eAlu;
    rates_.fuOp = p.eLrf + p.kIntraEnergy * p.b * intraE;
    rates_.spOp = p.eSp;
    rates_.srfWord = p.rM * p.tMem * p.b * p.eSram / p.gSrf +
                     p.b * (p.eSb + intraE / 2.0);
    rates_.interCommWord =
        p.kCommEnergy * p.b * model.interCommEnergyPerBit(size);
    rates_.ucBusyCycle = model.microcontrollerEnergy(size);

    const double c = size.clusters;
    rates_.aluSlotsPerCycle = c * n;
    rates_.srfPeakWordsPerCycle = p.gSb * n * c;
    rates_.interPeakWordsPerCycle = p.gComm * n * c;
    rates_.clusterSlotFullRate = model.clusterEnergy(n) / n;

    // A client's params and energy config reach here.
    requireNonNegative(rates_, "rate");
    requireNonNegative(cfg_.dram, "dram");
    if (!(cfg_.idleFraction >= 0 && cfg_.idleFraction <= 1))
        throw std::invalid_argument(
            "bad energy config: idle fraction must lie in [0, 1], got " +
            std::to_string(cfg_.idleFraction));
}

EnergyReport
EnergyAccountant::account(const sim::SimResult &r) const
{
    const sim::SimCounters &ctr = r.counters;
    EnergyReport e;
    e.valid = true;
    e.cycles = r.cycles;
    e.aluOps = r.aluOps;
    e.outputWords = ctr.memStoreWords;
    e.ewToJoules = tech_.ewFj * 1e-15;
    e.clockGHz = clockGHz_;

    const double f = cfg_.idleFraction;
    auto idleOf = [f](double capacity, double used, double rate) {
        return f * std::max(0.0, capacity - used) * rate;
    };

    // Clusters: each executed op carries its own energy; each FU
    // result additionally reads LRFs and crosses the intracluster
    // switch. Unused issue slots are charged a fraction of the
    // full-rate per-slot cluster energy (clock trees, control).
    e.clusters.dynamicEw =
        static_cast<double>(r.aluOps) * rates_.aluOp +
        static_cast<double>(ctr.clusterFuOps) * rates_.fuOp +
        static_cast<double>(ctr.clusterSpOps) * rates_.spOp;
    e.clusters.idleEw = idleOf(
        static_cast<double>(ctr.aluIssueSlots),
        static_cast<double>(r.aluOps), rates_.clusterSlotFullRate);

    // SRF: every word in or out (kernel streams and memory transfers
    // alike) pays the storage + streambuffer + half-traversal rate.
    const double srfWords = static_cast<double>(ctr.srfReadWords) +
                            static_cast<double>(ctr.srfWriteWords);
    e.srf.dynamicEw = srfWords * rates_.srfWord;
    e.srf.idleEw =
        idleOf(rates_.srfPeakWordsPerCycle *
                   static_cast<double>(r.cycles),
               srfWords, rates_.srfWord);

    // Microcontroller: busy cycles (including per-call overhead, which
    // is real fetch work) at the fetch+distribution rate; parked
    // cycles at the idle fraction of it.
    e.microcontroller.dynamicEw =
        static_cast<double>(r.ucBusy) * rates_.ucBusyCycle;
    e.microcontroller.idleEw =
        idleOf(static_cast<double>(r.cycles),
               static_cast<double>(r.ucBusy), rates_.ucBusyCycle);

    // Intercluster switch: per COMM word actually sent.
    e.interclusterComm.dynamicEw =
        static_cast<double>(ctr.interCommWords) * rates_.interCommWord;
    e.interclusterComm.idleEw =
        idleOf(rates_.interPeakWordsPerCycle *
                   static_cast<double>(r.cycles),
               static_cast<double>(ctr.interCommWords),
               rates_.interCommWord);

    // DRAM extension: per-access energy split by row behaviour, plus
    // channel pin activity; idle channels are charged the idle
    // fraction of the pin-busy rate.
    const DramEnergyParams &d = cfg_.dram;
    double chanBusy = 0.0;
    for (int64_t v : ctr.dramChannelBusyCycles)
        chanBusy += static_cast<double>(v);
    const double chanCapacity =
        static_cast<double>(ctr.dramChannelBusyCycles.size()) *
        static_cast<double>(r.cycles);
    e.dram.dynamicEw =
        static_cast<double>(ctr.dramRowHits) * d.rowHitEnergyEw +
        static_cast<double>(ctr.dramRowMisses) * d.rowMissEnergyEw +
        chanBusy * d.channelBusyEnergyEw;
    e.dram.idleEw =
        idleOf(chanCapacity, chanBusy, d.channelBusyEnergyEw);

    return e;
}

namespace {

/** Disjoint sorted busy intervals of one op class in the timeline. */
std::vector<analysis::CycleInterval>
classIntervals(const std::vector<sim::OpInterval> &timeline,
               bool wantKernel)
{
    std::vector<analysis::CycleInterval> v;
    for (const sim::OpInterval &op : timeline) {
        const bool isKernel = op.kind == sim::OpClass::Kernel;
        const bool isMem = op.kind == sim::OpClass::Load ||
                           op.kind == sim::OpClass::Store;
        if ((wantKernel && isKernel) || (!wantKernel && isMem))
            v.push_back({op.start, op.end});
    }
    return analysis::mergeIntervals(std::move(v));
}

/** Step-function samples (ts, on?) at each interval boundary. */
void
emitTrack(trace::Tracer &tracer, const char *name,
          const std::vector<analysis::CycleInterval> &busy,
          double activeMw, double baselineMw, int64_t cycles)
{
    tracer.counter(name, 0,
                   static_cast<int64_t>(std::llround(baselineMw)));
    for (const analysis::CycleInterval &iv : busy) {
        tracer.counter(name, iv.start,
                       static_cast<int64_t>(
                           std::llround(baselineMw + activeMw)));
        tracer.counter(name, iv.end,
                       static_cast<int64_t>(std::llround(baselineMw)));
    }
    if (cycles > 0 && (busy.empty() || busy.back().end < cycles))
        tracer.counter(name, cycles,
                       static_cast<int64_t>(std::llround(baselineMw)));
}

} // namespace

void
emitPowerCounters(const sim::SimResult &r, trace::Tracer &tracer)
{
    const EnergyReport &e = r.energy;
    if (!e.valid || r.cycles <= 0 || e.ewToJoules <= 0.0)
        return;

    // Ew-per-cycle -> milliwatts at the report's clock.
    const double ewPerCycleToMw =
        e.ewToJoules * e.clockGHz * 1e9 * 1e3;

    std::vector<analysis::CycleInterval> kBusy =
        classIntervals(r.timeline, /*wantKernel=*/true);
    std::vector<analysis::CycleInterval> mBusy =
        classIntervals(r.timeline, /*wantKernel=*/false);
    const int64_t kCycles = analysis::intervalLength(kBusy);
    const int64_t mCycles = analysis::intervalLength(mBusy);

    // Dynamic energy of the compute-side components is spread over
    // the kernel-busy intervals (kernels dominate SRF traffic: they
    // touch every stream word at least once on each side); DRAM
    // dynamic energy over the memory-transfer intervals. Idle/clock
    // energy is a uniform baseline across the whole run.
    const double kernelDynEw =
        e.clusters.dynamicEw + e.microcontroller.dynamicEw +
        e.srf.dynamicEw + e.interclusterComm.dynamicEw;
    const double memDynEw = e.dram.dynamicEw;
    const double idleEw = e.totalEw() - kernelDynEw - memDynEw;

    const double kernelMw =
        kCycles > 0 ? kernelDynEw / kCycles * ewPerCycleToMw : 0.0;
    const double memMw =
        mCycles > 0 ? memDynEw / mCycles * ewPerCycleToMw : 0.0;
    const double baseMw = idleEw / r.cycles * ewPerCycleToMw;

    emitTrack(tracer, "power_kernel_mw", kBusy, kernelMw, 0.0,
              r.cycles);
    emitTrack(tracer, "power_mem_mw", mBusy, memMw, 0.0, r.cycles);

    // Total: sample at every boundary of the union of both sets.
    std::vector<int64_t> edges{0, r.cycles};
    for (const analysis::CycleInterval &iv : kBusy) {
        edges.push_back(iv.start);
        edges.push_back(iv.end);
    }
    for (const analysis::CycleInterval &iv : mBusy) {
        edges.push_back(iv.start);
        edges.push_back(iv.end);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    auto active = [](const std::vector<analysis::CycleInterval> &v,
                     int64_t t) {
        auto it = std::upper_bound(
            v.begin(), v.end(), t,
            [](int64_t x, const analysis::CycleInterval &iv) {
                return x < iv.start;
            });
        return it != v.begin() && t < std::prev(it)->end;
    };
    for (int64_t t : edges) {
        double mw = baseMw + (active(kBusy, t) ? kernelMw : 0.0) +
                    (active(mBusy, t) ? memMw : 0.0);
        tracer.counter("power_total_mw", t,
                       static_cast<int64_t>(std::llround(mw)));
    }
}

} // namespace sps::energy
