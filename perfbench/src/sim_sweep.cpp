/**
 * @file
 * sim_sweep: the 120 Figure-15 points re-simulated serially on one
 * thread. Set-up precompiles every schedule, so the passes compile
 * nothing; each point builds its program and runs it on a fresh
 * StreamProcessor. The seed permutes the point order.
 *
 * The traced pass rebuilds StreamProcessor::run from its public parts
 * -- sim::executeProgram over a Microcontroller, an srf::Allocator and
 * a mem::StreamMemSystem, with a CompileFn that times every
 * ScheduleCache::get, then the processor's EnergyAccountant -- so the
 * build, kernel-lookup, controller and energy times of every point are
 * timed from outside. The digest check proves the rebuilt run gives
 * the same results. After each traced pass, every program's loads and
 * stores are replayed through a fresh StreamMemSystem to time the DRAM
 * scheduling on its own.
 */
#include <cstdio>
#include <map>
#include <memory>

#include "expected.h"
#include "workloads.h"

#include "core/eval_engine.h"
#include "sched/schedule_cache.h"
#include "stream/deps.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using namespace sps;

/** The digest of one pass: each grid point's speedup and result. */
uint64_t
gridDigest(const std::vector<core::AppPoint> &pts)
{
    Digest d;
    for (const auto &p : pts) {
        d.add(p.speedup);
        d.add(p.result);
    }
    return d.f.h;
}

/**
 * Replay a program's loads and stores through `mem`, batched the way
 * the stream controller batches them: a batch resolves when an op
 * depends on an unresolved transfer or the scoreboard fills. Returns
 * the DRAM accesses the replay performed.
 */
int64_t
replayTransfers(const stream::StreamProgram &prog,
                const stream::ProgramDeps &deps,
                const sim::SimResult &res, int scoreboard,
                mem::StreamMemSystem &mem)
{
    mem.beginProgram();
    const auto &ops = prog.ops();
    std::vector<bool> unresolved(ops.size(), false);
    std::vector<size_t> pending;
    std::vector<int> tickets;
    auto resolve = [&] {
        if (pending.empty())
            return;
        mem.resolveAll();
        for (size_t i : pending)
            unresolved[i] = false;
        pending.clear();
    };
    for (size_t i = 0; i < ops.size(); ++i) {
        for (int d : deps.deps[i])
            if (unresolved[static_cast<size_t>(d)]) {
                resolve();
                break;
            }
        if (static_cast<int>(pending.size()) >= scoreboard)
            resolve();
        const stream::StreamOp &op = ops[i];
        if (op.kind == stream::OpKind::Kernel)
            continue;
        const auto &info = prog.streams()[static_cast<size_t>(op.stream)];
        mem::TransferDesc desc;
        desc.words = info.memWords();
        desc.baseWord = op.memBase;
        desc.strideWords = op.memStride;
        desc.recordWords = op.memRecordWords;
        desc.startCycle = res.timeline[i].readyCycle;
        desc.write = op.kind == stream::OpKind::Store;
        tickets.push_back(mem.submit(desc));
        pending.push_back(i);
        unresolved[i] = true;
    }
    resolve();
    int64_t accesses = 0;
    for (int t : tickets)
        accesses += mem.result(t).dramAccesses;
    return accesses;
}

} // namespace

Report
runSimSweep(const Options &opt)
{
    Report rep;
    auto &cache = sched::ScheduleCache::global();
    const svc::AppSweepPlan plan = gridPlan();
    std::map<std::string, workloads::AppEntry> apps;
    for (auto &app : workloads::appSuite())
        apps.emplace(app.name, app);
    core::EvalEngine serial(1);
    Anchors anchors;

    // Set-up: every schedule the grid (and the kernel anchors) needs,
    // compiled serially from an empty cache.
    double setup_s = timedSetup([&] {
        cache.clear();
        for (const svc::EvalPoint &pt : plan.grid) {
            sim::StreamProcessor proc(svc::effectiveSimConfig(pt));
            stream::StreamProgram prog =
                apps.at(pt.app).build(pt.size, proc.srf());
            for (const auto &op : prog.ops())
                if (op.k)
                    proc.compile(*op.k);
        }
        anchors.setKernel(core::headlineNumbers(false, &serial));
    });

    PassLog plain, traced;
    auto finish = [&](PassLog &log, std::vector<sim::SimResult> grid,
                      Pass pass) {
        pass.ops = static_cast<double>(grid.size());
        for (const auto &r : grid)
            pass.words += streamWords(r);
        log.passes.push_back(std::move(pass));
        std::vector<core::AppPoint> pts = gridPoints(plan, std::move(grid));
        uint64_t digest = gridDigest(pts);
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "sim_sweep digest %016llx != expected",
                      static_cast<unsigned long long>(digest));
        rep.check(digest == kSimSweepDigest, buf, pts.size());
        if (!anchors.hasApp)
            anchors.setApp(pts);
    };

    auto untraced = [&](uint64_t order_seed) {
        std::vector<sim::SimResult> grid(plan.grid.size());
        const auto order = permutation(plan.grid.size(), order_seed);
        Pass pass;
        pass.latencyMs.resize(plan.grid.size());
        auto t0 = Clock::now();
        for (size_t idx : order) {
            const svc::EvalPoint &pt = plan.grid[idx];
            auto tp = Clock::now();
            sim::StreamProcessor proc(svc::effectiveSimConfig(pt));
            stream::StreamProgram prog =
                apps.at(pt.app).build(pt.size, proc.srf());
            grid[idx] = proc.run(prog);
            pass.latencyMs[idx] = secondsSince(tp) * 1e3;
        }
        pass.seconds = secondsSince(t0);
        finish(plain, std::move(grid), std::move(pass));
    };

    auto tracedPass = [&](uint64_t order_seed) {
        std::vector<sim::SimResult> grid(plan.grid.size());
        const auto order = permutation(plan.grid.size(), order_seed);
        std::vector<std::unique_ptr<stream::StreamProgram>> progs(
            plan.grid.size());
        double build_s = 0, lookup_s = 0, exec_s = 0, energy_s = 0;
        double lookups = 0, stream_ops = 0, cycles = 0, point_max = 0;
        const uint64_t compiles0 = cache.counters().misses;
        Pass pass;
        pass.latencyMs.resize(plan.grid.size());
        auto t0 = Clock::now();
        for (size_t idx : order) {
            const svc::EvalPoint &pt = plan.grid[idx];
            auto tp = Clock::now();
            sim::StreamProcessor proc(svc::effectiveSimConfig(pt));
            const sim::SimConfig &cfg = proc.config();
            auto tb = Clock::now();
            progs[idx] = std::make_unique<stream::StreamProgram>(
                apps.at(pt.app).build(pt.size, proc.srf()));
            build_s += secondsSince(tb);

            sim::ControllerConfig ctrl;
            ctrl.clusters = cfg.size.clusters;
            ctrl.alusPerCluster = cfg.size.alusPerCluster;
            ctrl.hostIssueCycles = cfg.hostIssueCycles;
            ctrl.scoreboardDepth = cfg.scoreboardDepth;
            ctrl.srfPeakWordsPerCycle = proc.srf().peakWordsPerCycle;
            sim::Microcontroller uc(cfg.ucConfig, cfg.size.clusters);
            srf::Allocator alloc(proc.srf().capacityWords);
            mem::StreamMemSystem memsys(cfg.memConfig);
            double point_lookup_s = 0;
            sim::CompileFn compile =
                [&](const kernel::Kernel &k)
                -> const sched::CompiledKernel & {
                auto tl = Clock::now();
                const sched::CompiledKernel &ck =
                    cache.get(k, proc.machine());
                point_lookup_s += secondsSince(tl);
                ++lookups;
                return ck;
            };
            auto te = Clock::now();
            sim::SimResult res = sim::executeProgram(*progs[idx], ctrl,
                                                     memsys, uc, alloc,
                                                     compile);
            exec_s += secondsSince(te);
            lookup_s += point_lookup_s;
            auto ta = Clock::now();
            res.energy = proc.accountant().account(res);
            energy_s += secondsSince(ta);

            double point_s = secondsSince(tp);
            pass.latencyMs[idx] = point_s * 1e3;
            point_max = std::max(point_max, point_s);
            stream_ops += static_cast<double>(progs[idx]->ops().size());
            cycles += static_cast<double>(res.cycles);
            grid[idx] = std::move(res);
        }
        pass.seconds = secondsSince(t0);
        const double secs = pass.seconds;
        double compiles =
            static_cast<double>(cache.counters().misses - compiles0);

        // The DRAM replay, outside the pass time.
        double replay_s = 0, replayed = 0, simulated = 0;
        for (size_t i = 0; i < plan.grid.size(); ++i) {
            sim::StreamProcessor proc(
                svc::effectiveSimConfig(plan.grid[i]));
            stream::ProgramDeps deps = stream::analyzeDeps(*progs[i]);
            mem::StreamMemSystem memsys(proc.config().memConfig);
            auto tr = Clock::now();
            replayed += static_cast<double>(
                replayTransfers(*progs[i], deps, grid[i],
                                proc.config().scoreboardDepth, memsys));
            replay_s += secondsSince(tr);
            simulated +=
                static_cast<double>(grid[i].counters.dramAccesses);
        }
        rep.check(replayed == simulated,
                  "mem replay DRAM accesses differ from the simulated "
                  "counters");

        double controller_s = exec_s - lookup_s;
        traced.layer("core.critical_point_s", point_max);
        traced.layer("sched.compiles", compiles);
        traced.layer("sched.lookups", lookups);
        traced.layer("sched.lookup_s", lookup_s);
        traced.layer("workloads.build_s", build_s);
        traced.layer("sim.controller_s", controller_s);
        traced.layer("sim.stream_ops", stream_ops);
        traced.layer("sim.cycles", cycles);
        traced.layer("sim.ns_per_stream_op",
                     controller_s / stream_ops * 1e9);
        traced.layer("mem.replay_s", replay_s);
        traced.layer("mem.dram_accesses", replayed);
        traced.layer("energy.account_s", energy_s);
        traced.layer("attrib.coverage",
                     (build_s + lookup_s + controller_s + energy_s) /
                         secs);
        finish(traced, std::move(grid), std::move(pass));
    };

    double rss_mb = passLoop(opt, untraced, tracedPass);

    double err = anchors.errorPct();
    if (opt.trace)
        reportLayers(rep, plain, traced);
    else
        reportEndToEnd(rep, setup_s, rss_mb, plain, err, "point");
    return rep;
}

} // namespace perfbench
