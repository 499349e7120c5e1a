/**
 * @file
 * Execution statistics of one simulated stream program: the headline
 * aggregates (cycles, ops, words), the per-op timeline, and the
 * hardware counter set (SimCounters) the observability layer fills in
 * -- cycle breakdown, issue stalls, SRF traffic, and DRAM behaviour.
 */
#ifndef SPS_SIM_STATS_H
#define SPS_SIM_STATS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bottleneck_report.h"
#include "common/fields.h"
#include "energy/energy_report.h"

namespace sps::sim {

/** Coarse class of one stream-level op (for timeline/trace export). */
enum class OpClass { Load, Store, Kernel, Other };

/** Start/end cycle of one stream-level operation. */
struct OpInterval
{
    int64_t start = 0;
    int64_t end = 0;
    std::string label;
    /**
     * Program-order op id (index into StreamProgram::ops). Labels
     * repeat across strip-mined batches; the id keeps overlapping
     * intervals from double-buffered loads distinguishable in trace
     * exports.
     */
    int opId = -1;
    OpClass kind = OpClass::Other;

    // --- Issue metadata (for bottleneck attribution). ---
    /** Cycle issue began waiting on a full scoreboard (== issueStart
     *  when it never waited). */
    int64_t sbWaitStart = 0;
    /** Cycle the host channel started serializing this instruction. */
    int64_t issueStart = 0;
    /** Cycle host issue finished (issueStart + host issue cycles). */
    int64_t issueEnd = 0;
    /** Cycle all dependences had completed (>= issueEnd). */
    int64_t readyCycle = 0;
};

template <FieldsOf<OpInterval> S, typename F>
void
forEachField(S &iv, F &&f)
{
    f("start", iv.start);
    f("end", iv.end);
    f("label", iv.label);
    f("op_id", iv.opId);
    f("kind", iv.kind);
    f("sb_wait_start", iv.sbWaitStart);
    f("issue_start", iv.issueStart);
    f("issue_end", iv.issueEnd);
    f("ready_cycle", iv.readyCycle);
}

/**
 * Hardware counters of one simulation. Event counts are exact
 * (deterministic for a given program and configuration); derived rates
 * live on SimResult as accessors.
 */
struct SimCounters
{
    // --- Cycle breakdown: sums exactly to SimResult::cycles. ---
    /** Cycles only kernel execution (microcontroller) was busy. */
    int64_t kernelOnlyCycles = 0;
    /** Cycles only the memory system's pins were busy. */
    int64_t memOnlyCycles = 0;
    /** Cycles both were busy (load/store overlapped with a kernel). */
    int64_t overlapCycles = 0;
    /** Cycles neither was busy (dependence / issue / latency gaps). */
    int64_t idleCycles = 0;

    // --- Stream controller / host interface. ---
    int64_t kernelCalls = 0;
    int64_t loads = 0;
    int64_t stores = 0;
    /** Host channel occupancy issuing stream instructions. */
    int64_t hostIssueBusyCycles = 0;
    /** Issue stalled because the scoreboard was full. */
    int64_t scoreboardStallCycles = 0;
    /** Op issued but waiting on dependences (sum over ops). */
    int64_t depStallCycles = 0;
    /** Load/store ready but the memory pipe was still busy. */
    int64_t memPipeStallCycles = 0;
    /** Kernel ready but the microcontroller was still busy. */
    int64_t ucPipeStallCycles = 0;

    // --- Microcontroller. ---
    /** Per-call overhead: pipeline fill plus microcode loads. */
    int64_t ucOverheadCycles = 0;

    // --- Cluster ALUs. ---
    /** Total ALU issue slots: cycles * clusters * ALUs per cluster. */
    int64_t aluIssueSlots = 0;
    /** Slots during kernel execution only: ucBusy * C * N. */
    int64_t kernelAluSlots = 0;

    // --- Cluster activity (per executed record, from the compiled
    //     kernel's census; drives the energy accountant). ---
    /** Functional-unit results crossing the intracluster switch
     *  (ALU + COMM + scratchpad ops; each also reads its LRFs). */
    int64_t clusterFuOps = 0;
    /** Scratchpad accesses executed. */
    int64_t clusterSpOps = 0;
    /** Intercluster COMM words sent across the intercluster switch. */
    int64_t interCommWords = 0;

    // --- SRF / streambuffers. ---
    /** Words read out of the SRF (kernel inputs + stores). */
    int64_t srfReadWords = 0;
    /** Words written into the SRF (kernel outputs + loads). */
    int64_t srfWriteWords = 0;
    /** Words the program stored back to memory (application output,
     *  unpacked; the denominator of energy-per-output-word). */
    int64_t memStoreWords = 0;
    /** Extra kernel cycles implied by SRF bandwidth saturation. */
    int64_t srfBwStallCycles = 0;

    // --- DRAM (accumulated over all stream transfers). ---
    int64_t dramAccesses = 0;
    int64_t dramRowHits = 0;
    int64_t dramRowMisses = 0;
    /** Row misses that had to precharge an open row first. */
    int64_t dramBankConflicts = 0;
    /** Sum of access-scheduler reorder distances (requests bypassed). */
    int64_t dramReorderSum = 0;
    /** Largest single reorder distance observed. */
    int64_t dramReorderMax = 0;
    /** Idle channel-cycles caused by address aliasing (channels *
     *  critical-channel busy minus total busy, per transfer). */
    int64_t memAliasStallCycles = 0;
    /** Pin-busy cycles per memory channel over the run. */
    std::vector<int64_t> dramChannelBusyCycles;
};

/** Field table (common/fields.h); the names are counters-CSV columns. */
template <FieldsOf<SimCounters> S, typename F>
void
forEachField(S &c, F &&f)
{
    f("kernel_only_cycles", c.kernelOnlyCycles);
    f("mem_only_cycles", c.memOnlyCycles);
    f("overlap_cycles", c.overlapCycles);
    f("idle_cycles", c.idleCycles);
    f("kernel_calls", c.kernelCalls);
    f("loads", c.loads);
    f("stores", c.stores);
    f("host_issue_busy_cycles", c.hostIssueBusyCycles);
    f("scoreboard_stall_cycles", c.scoreboardStallCycles);
    f("dep_stall_cycles", c.depStallCycles);
    f("mem_pipe_stall_cycles", c.memPipeStallCycles);
    f("uc_pipe_stall_cycles", c.ucPipeStallCycles);
    f("uc_overhead_cycles", c.ucOverheadCycles);
    f("alu_issue_slots", c.aluIssueSlots);
    f("kernel_alu_slots", c.kernelAluSlots);
    f("cluster_fu_ops", c.clusterFuOps);
    f("cluster_sp_ops", c.clusterSpOps);
    f("inter_comm_words", c.interCommWords);
    f("srf_read_words", c.srfReadWords);
    f("srf_write_words", c.srfWriteWords);
    f("mem_store_words", c.memStoreWords);
    f("srf_bw_stall_cycles", c.srfBwStallCycles);
    f("dram_accesses", c.dramAccesses);
    f("dram_row_hits", c.dramRowHits);
    f("dram_row_misses", c.dramRowMisses);
    f("dram_bank_conflicts", c.dramBankConflicts);
    f("dram_reorder_sum", c.dramReorderSum);
    f("dram_reorder_max", c.dramReorderMax);
    f("mem_alias_stall_cycles", c.memAliasStallCycles);
    f("dram_channel_busy_cycles", c.dramChannelBusyCycles);
}

/** Results of one simulation. */
struct SimResult
{
    /** Total execution time (cycles). */
    int64_t cycles = 0;
    /** ALU operations executed (per-instruction count). */
    int64_t aluOps = 0;
    /** GOPS-counted operations (subword-aware). */
    double gopsOps = 0.0;
    /** Words moved to/from external memory. */
    int64_t memWords = 0;
    /** Cycles the memory system was busy. */
    int64_t memBusy = 0;
    /** Cycles the microcontroller (kernel execution) was busy. */
    int64_t ucBusy = 0;
    /** Peak SRF occupancy (words). */
    int64_t srfHighWater = 0;
    /** Per-op execution intervals, in program order. */
    std::vector<OpInterval> timeline;
    /** Hardware counters (see SimCounters). */
    SimCounters counters;
    /** Activity-driven energy breakdown. Filled by
     *  sim::StreamProcessor::run (which owns the cost model); a raw
     *  executeProgram() result carries an empty (valid == false)
     *  report. */
    energy::EnergyReport energy;
    /** Stall-attribution waterfall; filled on every run. */
    analysis::BottleneckReport bottleneck;

    /** Sustained GOPS at a clock frequency in GHz. */
    double
    gops(double clock_ghz) const
    {
        return cycles > 0 ? gopsOps / cycles * clock_ghz : 0.0;
    }

    double
    memBusyFraction() const
    {
        return cycles > 0 ? static_cast<double>(memBusy) / cycles : 0.0;
    }

    double
    ucBusyFraction() const
    {
        return cycles > 0 ? static_cast<double>(ucBusy) / cycles : 0.0;
    }

    // --- Derived counter rates. ---

    /** ALU occupancy over the whole run (ops / issue slots). */
    double
    aluOccupancy() const
    {
        return counters.aluIssueSlots > 0
                   ? static_cast<double>(aluOps) / counters.aluIssueSlots
                   : 0.0;
    }

    /** ALU occupancy while kernels were running. */
    double
    kernelAluOccupancy() const
    {
        return counters.kernelAluSlots > 0
                   ? static_cast<double>(aluOps) /
                         counters.kernelAluSlots
                   : 0.0;
    }

    /** SRF read bandwidth over the run (words per cycle). */
    double
    srfReadBandwidth() const
    {
        return cycles > 0
                   ? static_cast<double>(counters.srfReadWords) / cycles
                   : 0.0;
    }

    /** SRF write bandwidth over the run (words per cycle). */
    double
    srfWriteBandwidth() const
    {
        return cycles > 0
                   ? static_cast<double>(counters.srfWriteWords) / cycles
                   : 0.0;
    }

    /** Fraction of DRAM accesses that hit an open row. */
    double
    dramRowHitRate() const
    {
        return counters.dramAccesses > 0
                   ? static_cast<double>(counters.dramRowHits) /
                         counters.dramAccesses
                   : 0.0;
    }

    /** Busiest memory channel's pin-busy cycles (0 with no mem ops). */
    int64_t
    dramChannelBusyMax() const
    {
        int64_t m = 0;
        for (int64_t v : counters.dramChannelBusyCycles)
            m = std::max(m, v);
        return m;
    }

    /** Least-busy memory channel's pin-busy cycles. */
    int64_t
    dramChannelBusyMin() const
    {
        if (counters.dramChannelBusyCycles.empty())
            return 0;
        int64_t m = counters.dramChannelBusyCycles.front();
        for (int64_t v : counters.dramChannelBusyCycles)
            m = std::min(m, v);
        return m;
    }

    /** Mean access-scheduler reorder distance per DRAM access. */
    double
    dramAvgReorderDistance() const
    {
        return counters.dramAccesses > 0
                   ? static_cast<double>(counters.dramReorderSum) /
                         counters.dramAccesses
                   : 0.0;
    }
};

template <FieldsOf<SimResult> S, typename F>
void
forEachField(S &r, F &&f)
{
    f("cycles", r.cycles);
    f("alu_ops", r.aluOps);
    f("gops_ops", r.gopsOps);
    f("mem_words", r.memWords);
    f("mem_busy_cycles", r.memBusy);
    f("uc_busy_cycles", r.ucBusy);
    f("srf_high_water_words", r.srfHighWater);
    f("timeline", r.timeline);
    f("counters", r.counters);
    f("energy", r.energy);
    f("bottleneck", r.bottleneck);
}

} // namespace sps::sim

#endif // SPS_SIM_STATS_H
