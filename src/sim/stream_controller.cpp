#include "sim/stream_controller.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "analysis/bottleneck.h"
#include "common/log.h"

namespace sps::sim {

using stream::OpKind;
using stream::StreamOp;

namespace {

/**
 * Execute one kernel call functionally: gather bound input streams
 * from the context, run the interpreter, write outputs back.
 */
void
runKernelFunctionally(const StreamOp &op, int clusters,
                      FunctionalContext &ctx,
                      const stream::StreamProgram &prog)
{
    const kernel::Kernel &k = *op.k;
    const std::span<const int> args = prog.args(op);
    std::vector<interp::StreamData> inputs;
    std::vector<int> out_streams;
    for (size_t p = 0; p < k.streams.size(); ++p) {
        int bound = args[p];
        if (k.streams[p].dir == kernel::PortDir::In) {
            if (!ctx.has(bound))
                fatal("program %s: functional run of kernel %s needs "
                      "data for stream %s",
                      prog.name().c_str(), k.name.c_str(),
                      prog.streams()[static_cast<size_t>(bound)]
                          .name.c_str());
            inputs.push_back(ctx.get(bound));
        } else {
            out_streams.push_back(bound);
        }
    }
    interp::ExecResult exec = interp::runKernel(k, clusters, inputs);
    SPS_ASSERT(exec.outputs.size() == out_streams.size(),
               "kernel %s: output count mismatch", k.name.c_str());
    for (size_t o = 0; o < out_streams.size(); ++o)
        ctx.streams[out_streams[o]] = std::move(exec.outputs[o]);
}

} // namespace

SimResult
executeProgram(const stream::StreamProgram &prog,
               const ControllerConfig &cfg,
               mem::StreamMemSystem &mem_sys, Microcontroller &uc,
               srf::Allocator &alloc, const CompileFn &compile,
               const RunOptions &opts)
{
    stream::ProgramDeps deps = stream::analyzeDeps(prog);
    const auto &ops = prog.ops();
    const auto &streams = prog.streams();
    trace::Tracer *tracer = opts.tracer;
    // One lookup per distinct kernel, not per call.
    std::vector<const sched::CompiledKernel *> compiled;
    compiled.reserve(prog.kernels().size());
    for (const kernel::Kernel *k : prog.kernels())
        compiled.push_back(&compile(*k));

    SimResult result;
    SimCounters &ctr = result.counters;
    result.timeline.resize(ops.size());
    std::vector<int64_t> complete(ops.size(), 0);
    // Memory ops are submitted at issue and resolved lazily in
    // batches, so overlapping transfers contend for channels.
    std::vector<bool> unresolved(ops.size(), false);
    struct PendingMemOp
    {
        size_t opIndex = 0;
        int ticket = 0;
    };
    std::vector<PendingMemOp> pending_mem;
    std::vector<analysis::CycleInterval> uc_busy;
    // Memory pin occupancy: each resolve's busy intervals go into this
    // running union, which in the usual case holds no more than their
    // merged set; batch_busy is the reused buffer they pass through.
    analysis::IntervalUnion mem_union;
    std::vector<mem::BusyInterval> batch_busy;

    int64_t issue_time = 0;
    int64_t uc_free = 0;
    bool warned_overflow = false;

    mem_sys.beginProgram();
    // Every load and store is one transfer result: room for all of
    // them up front, so the results never regrow during the run.
    mem_sys.reserve(static_cast<size_t>(
        std::count_if(ops.begin(), ops.end(), [](const StreamOp &op) {
            return op.kind != OpKind::Kernel;
        })));

    if (SPS_TRACE_ENABLED(tracer)) {
        tracer->setTrackName(trace::kTrackHost,
                             "host / stream controller");
        tracer->setTrackName(trace::kTrackMem, "streaming memory");
        tracer->setTrackName(trace::kTrackClusters,
                             "microcontroller + clusters");
        tracer->setTrackName(trace::kTrackSrf, "SRF");
    }

    // Completion times of in-flight ops, for the finite scoreboard.
    std::priority_queue<int64_t, std::vector<int64_t>,
                        std::greater<int64_t>>
        in_flight;

    // Resolve the pending transfer batch jointly and retire its ops:
    // completion times, timeline intervals, and DRAM counters all
    // become known here.
    auto resolve_mem = [&]() {
        if (pending_mem.empty())
            return;
        mem_sys.resolveAll();
        mem_sys.takeBusyIntervals(batch_busy);
        for (const mem::BusyInterval &iv : batch_busy)
            mem_union.add(iv);
        batch_busy.clear();
        for (const PendingMemOp &p : pending_mem) {
            const mem::TransferResult &tr = mem_sys.result(p.ticket);
            complete[p.opIndex] = tr.doneCycle;
            unresolved[p.opIndex] = false;
            in_flight.push(tr.doneCycle);
            OpInterval &iv = result.timeline[p.opIndex];
            iv.start = tr.serviceStart;
            iv.end = tr.doneCycle;
            result.cycles = std::max(result.cycles, tr.doneCycle);
            ctr.memPipeStallCycles += tr.serviceStart - tr.startCycle;
            ctr.dramAccesses += tr.dramAccesses;
            ctr.dramRowHits += tr.dramRowHits;
            ctr.dramRowMisses += tr.dramRowMisses;
            ctr.dramBankConflicts += tr.bankConflicts;
            ctr.dramReorderSum += tr.dramReorderSum;
            ctr.dramReorderMax =
                std::max(ctr.dramReorderMax, tr.dramReorderMax);
            ctr.memAliasStallCycles += tr.aliasStallCycles;
        }
        pending_mem.clear();
    };

    auto srf_counter_sample = [&](int64_t when) {
        if (SPS_TRACE_ENABLED(tracer))
            tracer->counter("srf_used_words", when, alloc.used());
    };

    auto ensure_resident = [&](int s, int64_t when) {
        if (alloc.resident(s))
            return;
        int64_t words = streams[static_cast<size_t>(s)].words();
        if (!alloc.allocate(s, words)) {
            if (!warned_overflow) {
                warn("program %s: SRF overflow allocating %s "
                     "(%lld words, %lld used / %lld capacity); "
                     "forcing allocation",
                     prog.name().c_str(),
                     streams[static_cast<size_t>(s)].name.c_str(),
                     static_cast<long long>(words),
                     static_cast<long long>(alloc.used()),
                     static_cast<long long>(alloc.capacity()));
                warned_overflow = true;
            }
            alloc.forceAllocate(s, words);
        }
        srf_counter_sample(when);
    };

    for (size_t i = 0; i < ops.size(); ++i) {
        const StreamOp &op = ops[i];
        const int op_id = static_cast<int>(i);

        // Host issue: serialized stream instructions over the finite
        // host channel, stalling when the scoreboard is full. Pending
        // (unresolved) transfers occupy scoreboard slots too.
        int64_t sb_wait_start = issue_time;
        while (static_cast<int>(in_flight.size() +
                                pending_mem.size()) >=
               cfg.scoreboardDepth) {
            resolve_mem();
            if (static_cast<int>(in_flight.size()) <
                cfg.scoreboardDepth)
                continue;
            int64_t retire = in_flight.top();
            in_flight.pop();
            if (retire > issue_time) {
                ctr.scoreboardStallCycles += retire - issue_time;
                if (SPS_TRACE_ENABLED(tracer))
                    tracer->complete("host", "scoreboard stall",
                                     issue_time, retire,
                                     trace::kTrackHost);
                issue_time = retire;
            }
        }
        int64_t issue_start = issue_time;
        issue_time += cfg.hostIssueCycles;
        ctr.hostIssueBusyCycles += cfg.hostIssueCycles;
        if (SPS_TRACE_ENABLED(tracer))
            tracer->complete("host", "issue " + prog.label(op), issue_start,
                             issue_time, trace::kTrackHost,
                             {{"op_id", op_id}});

        // A dependence on a still-unresolved transfer forces the
        // batch to resolve: its completion time is needed now.
        for (int d : deps.deps[i]) {
            if (unresolved[static_cast<size_t>(d)]) {
                resolve_mem();
                break;
            }
        }
        int64_t ready = issue_time;
        for (int d : deps.deps[i])
            ready = std::max(ready, complete[static_cast<size_t>(d)]);
        ctr.depStallCycles += ready - issue_time;

        OpInterval &iv = result.timeline[i];
        iv.label = prog.label(op);
        iv.opId = op_id;
        iv.sbWaitStart = sb_wait_start;
        iv.issueStart = issue_start;
        iv.issueEnd = issue_time;
        iv.readyCycle = ready;
        switch (op.kind) {
          case OpKind::Load:
          case OpKind::Store: {
            bool is_load = op.kind == OpKind::Load;
            iv.kind = is_load ? OpClass::Load : OpClass::Store;
            const auto &info = streams[static_cast<size_t>(op.stream)];
            int64_t words = info.memWords();
            if (is_load) {
                ++ctr.loads;
                ensure_resident(op.stream, ready);
                // The SRF receives the unpacked stream.
                ctr.srfWriteWords += info.words();
            } else {
                ++ctr.stores;
                ctr.srfReadWords += info.words();
                ctr.memStoreWords += info.words();
            }
            result.memWords += words;
            mem::TransferDesc desc;
            desc.words = words;
            desc.baseWord = op.memBase;
            desc.strideWords = op.memStride;
            desc.recordWords = op.memRecordWords;
            desc.startCycle = ready;
            desc.write = !is_load;
            int ticket;
            if (SPS_TRACE_ENABLED(tracer)) {
                mem::TransferTrace ttr{tracer, prog.label(op), op_id};
                ticket = mem_sys.submit(desc, &ttr);
            } else {
                ticket = mem_sys.submit(desc);
            }
            pending_mem.push_back(PendingMemOp{i, ticket});
            unresolved[i] = true;
            // Timeline/completion filled in by resolve_mem; until
            // then the op conservatively completes at `ready`.
            iv.start = ready;
            iv.end = ready;
            complete[i] = ready;
            break;
          }
          case OpKind::Kernel: {
            iv.kind = OpClass::Kernel;
            ++ctr.kernelCalls;
            // Outputs materialize in the SRF.
            for (int s : deps.writes[i])
                ensure_resident(s, ready);
            for (int s : deps.reads[i])
                ensure_resident(s, ready);
            const sched::CompiledKernel &ck =
                *compiled[static_cast<size_t>(op.kernelSlot)];
            int64_t start = std::max(ready, uc_free);
            ctr.ucPipeStallCycles += start - ready;
            Microcontroller::CallTiming t = uc.call(
                op.k->name, ck, op.records, start, tracer, op_id);
            int64_t end = start + t.cycles;
            uc_free = end;
            if (t.cycles > 0)
                uc_busy.push_back({start, end});
            result.ucBusy += t.cycles;
            ctr.ucOverheadCycles += t.overheadCycles;
            result.aluOps += ck.aluOpsPerIteration * op.records;
            result.gopsOps += ck.gopsOpsPerIteration *
                              static_cast<double>(op.records);
            // Cluster activity census (drives the energy accountant):
            // every executed op is an FU result; COMM ops also cross
            // the intercluster switch.
            ctr.clusterFuOps += (ck.aluOpsPerIteration +
                                 ck.commOpsPerIteration +
                                 ck.spOpsPerIteration) *
                                op.records;
            ctr.clusterSpOps += ck.spOpsPerIteration * op.records;
            ctr.interCommWords += ck.commOpsPerIteration * op.records;
            // SRF traffic: every bound input is read, every bound
            // output written, through the streambuffers.
            int64_t srf_words = 0;
            for (int s : deps.reads[i]) {
                int64_t w = streams[static_cast<size_t>(s)].words();
                ctr.srfReadWords += w;
                srf_words += w;
            }
            for (int s : deps.writes[i]) {
                int64_t w = streams[static_cast<size_t>(s)].words();
                ctr.srfWriteWords += w;
                srf_words += w;
            }
            // Saturation accounting: cycles this call's stream demand
            // would need beyond its duration at peak SRF bandwidth.
            if (cfg.srfPeakWordsPerCycle > 0 && t.cycles > 0) {
                auto needed = static_cast<int64_t>(
                    static_cast<double>(srf_words) /
                    cfg.srfPeakWordsPerCycle);
                if (needed > t.cycles)
                    ctr.srfBwStallCycles += needed - t.cycles;
            }
            if (opts.functional)
                runKernelFunctionally(op, cfg.clusters,
                                      *opts.functional, prog);
            complete[i] = end;
            in_flight.push(end);
            iv.start = start;
            iv.end = end;
            result.cycles = std::max(result.cycles, end);
            break;
          }
        }

        result.srfHighWater =
            std::max(result.srfHighWater, alloc.highWater());

        // Streams dead after this op release their SRF space.
        for (int s : deps.lastUseOf[i]) {
            alloc.release(s);
            srf_counter_sample(complete[i]);
        }
    }

    resolve_mem();

    // Memory pin occupancy: the union of per-channel busy intervals
    // accumulated across all resolve batches. Merging keeps the
    // breakdown identity memOnly + overlap == memBusy exact even when
    // batches interleave on the shared channels. uc_busy is already
    // sorted and disjoint: each kernel call starts no earlier than the
    // previous one ends. The cycle breakdown (kernel-only / mem-only /
    // overlapped / idle, summing to cycles) and the stall waterfall
    // both come from these two sets.
    std::vector<analysis::CycleInterval> mem_busy = mem_union.take();
    result.memBusy = analysis::intervalLength(mem_busy);
    ctr.overlapCycles = analysis::intervalLength(
        analysis::intersectIntervals(mem_busy, uc_busy));
    ctr.memOnlyCycles = result.memBusy - ctr.overlapCycles;
    ctr.kernelOnlyCycles =
        analysis::intervalLength(uc_busy) - ctr.overlapCycles;
    ctr.idleCycles = result.cycles - ctr.memOnlyCycles -
                     ctr.kernelOnlyCycles - ctr.overlapCycles;
    ctr.dramChannelBusyCycles.clear();
    for (const mem::ChannelStats &cs : mem_sys.channelStats())
        ctr.dramChannelBusyCycles.push_back(cs.busyCycles);
    ctr.aluIssueSlots =
        result.cycles * cfg.clusters * cfg.alusPerCluster;
    ctr.kernelAluSlots =
        result.ucBusy * cfg.clusters * cfg.alusPerCluster;

    result.bottleneck = analysis::attributeBottleneck(
        result.timeline, mem_busy, uc_busy, result.cycles);
    return result;
}

} // namespace sps::sim
