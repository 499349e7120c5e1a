/**
 * @file
 * The abstract's headline comparison: the 640-ALU C=128 N=5 machine
 * (and the 1280-ALU C=128 N=10 machine) against the 40-ALU C=8 N=5
 * baseline -- kernel and application speedups, sustained kernel GOPS,
 * and per-ALU area/energy degradations -- next to the published
 * numbers.
 *
 * Also reports evaluation-engine throughput: wall-clock for the full
 * figure-suite computation serial vs parallel and cold vs warm
 * caches, each the min of three runs, with the recompilation and
 * re-simulation counts that prove the warm runs compile and simulate
 * nothing, the slowest single kernel compile of the suite, the
 * suite's 240 compiles run serially through a cleared schedule cache
 * (min of five), the warm kernel lookups of the Figure-15 grid
 * programs, the warm Figure-15 sweep through the socket daemon, the
 * store codec's
 * encode and decode ns per byte over the 120 Figure-15 results, and
 * the DRAM model's ns per resolve over the Figure-15 programs' loads
 * and stores, and the Figure-15 programs' build and simulation times
 * -- written to BENCH_suite.json. App runs route through
 * svc::EvalService; pass --cache-dir DIR to add the disk tier (a warm
 * DIR makes even the "cold" rows compile/simulate nothing) and a
 * cache-tier counter section prints at the end.
 *
 * Reports functional-interpreter throughput (words/sec per Table-4
 * kernel: reference engine, lowered engine forced scalar, and lowered
 * engine on the host's best SIMD backend) and writes the numbers to
 * BENCH_interp.json so the perf trajectory is recorded across PRs.
 * Each kernel calls the three engines in turn for a fixed number of
 * rounds and keeps each engine's fastest call, so a change in host
 * load falls on all three alike instead of on one engine's block.
 * The table runs at C = 8 (COMM as one in-register permute) and again
 * at C = 3 (the path of every C that does not divide the vector
 * width). The C = 8 SIMD aggregate speedup is gated (>= 10x over the
 * reference) via the exit code, alongside the energy within-2x gate;
 * the C = 3 table is reported only.
 *
 * Finally cross-checks the measured energy model against the
 * analytical one: intercluster energy-per-ALU-op scaling at
 * C = 1..16 (N = 5), aggregated over the app suite and normalized to
 * C = 8, next to the analytical Figure 10 curve -- written to
 * BENCH_energy.json with the per-point measured/analytic ratios.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_cli.h"
#include "common/prng.h"
#include "common/table.h"
#include "core/design.h"
#include "core/eval_engine.h"
#include "core/experiments.h"
#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "mem/stream_mem.h"
#include "obs/metrics.h"
#include "sched/kernel_perf.h"
#include "sched/schedule_cache.h"
#include "sim/processor.h"
#include "store/codec.h"
#include "stream/deps.h"
#include "svc/eval_client.h"
#include "svc/eval_server.h"
#include "svc/eval_service.h"
#include "vlsi/cost_model.h"
#include "vlsi/sweep.h"
#include "workloads/kernels/kernels.h"
#include "workloads/suite.h"

namespace {

/** One full figure-suite computation (the work bench_export_all
 *  formats), with the app grid routed through the evaluation
 *  service; returns wall-clock seconds. */
double
runFigureSuite(sps::core::EvalEngine &eng,
               sps::svc::EvalService &service)
{
    using namespace sps;
    auto t0 = std::chrono::steady_clock::now();
    vlsi::CostModel model;
    vlsi::intraclusterSweep(model, 8, vlsi::defaultIntraRange(), 5,
                            &eng.pool());
    vlsi::interclusterSweep(model, 5, vlsi::defaultInterRange(), 8,
                            &eng.pool());
    core::kernelIntraSpeedups(core::kGridN, 8, &eng);
    core::kernelInterSpeedups(core::kGridC, 5, &eng);
    core::table5PerfPerArea(core::kGridN, core::kGridC, &eng);
    service.appPerformance(core::kGridC, core::kGridN);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
}

/** One figure-suite row: the fastest of kSuiteRepeats runs. */
struct SuiteRow
{
    const char *name = "";
    int threads = 0;
    double seconds = 0.0;
    uint64_t compiles = 0;
    uint64_t sims = 0;
};

constexpr int kSuiteRepeats = 3;

/**
 * Run the figure suite kSuiteRepeats times and keep the fastest. A
 * cold repeat starts from empty in-process tiers (schedule cache and
 * service memory); a warm one runs over what the runs before it left.
 * Every repeat does the same work, so the counts are one run's.
 */
SuiteRow
timeSuite(const char *name, sps::core::EvalEngine &eng,
          sps::svc::EvalService &service, bool cold)
{
    auto &cache = eng.cache();
    SuiteRow row{name, eng.threadCount(),
                 std::numeric_limits<double>::infinity()};
    for (int r = 0; r < kSuiteRepeats; ++r) {
        if (cold) {
            cache.clear();
            service.clearMemory();
        }
        uint64_t compiles0 = cache.counters().misses;
        uint64_t sims0 = service.counters().computed;
        row.seconds = std::min(row.seconds, runFigureSuite(eng, service));
        row.compiles = cache.counters().misses - compiles0;
        row.sims = service.counters().computed - sims0;
    }
    return row;
}

/** The slowest of the suite's distinct (kernel, machine) compiles. */
struct SlowestCompile
{
    const sps::core::SuiteCompile *pair = nullptr;
    double seconds = 0.0;
};

/** Time sched::compileKernel once per pair, bypassing every cache. */
SlowestCompile
slowestCompile(const std::vector<sps::core::SuiteCompile> &pairs)
{
    SlowestCompile slowest;
    for (const auto &p : pairs) {
        sps::sched::MachineModel m =
            sps::sched::MachineModel::forSize(p.size);
        auto t0 = std::chrono::steady_clock::now();
        sps::sched::compileKernel(*p.kernel, m);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (dt.count() > slowest.seconds)
            slowest = {&p, dt.count()};
    }
    return slowest;
}

constexpr int kCompileRepeats = 5;

/**
 * What a cold figure suite pays to compile, on one thread: every pair
 * compiled through a ScheduleCache cleared before each of
 * kCompileRepeats passes (so each kernel is planned once a pass, as in
 * a cold suite). Returns the fastest pass.
 */
double
timeCompiles(const std::vector<sps::core::SuiteCompile> &pairs)
{
    std::vector<sps::sched::MachineModel> machines;
    for (const auto &p : pairs)
        machines.push_back(sps::sched::MachineModel::forSize(p.size));
    sps::sched::ScheduleCache cache;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kCompileRepeats; ++r) {
        cache.clear();
        auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < pairs.size(); ++i)
            cache.get(*pairs[i].kernel, machines[i]);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count());
    }
    return best;
}

/** The fastest of several warm passes: its operation count and wall
 *  time. */
struct WarmPass
{
    uint64_t ops = 0;
    double seconds = 0.0;
};

/** Run `pass` (which returns how many operations it made) once
 *  untimed to warm every cache it uses, then kSuiteRepeats times
 *  timed, and keep the fastest. */
template <typename Pass>
WarmPass
fastestWarmPass(Pass &&pass)
{
    WarmPass best{0, std::numeric_limits<double>::infinity()};
    for (int r = 0; r <= kSuiteRepeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        uint64_t ops = pass();
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (r > 0)
            best = {ops, std::min(best.seconds, dt.count())};
    }
    return best;
}

/**
 * Resolve every kernel op of the Figure-15 grid programs through
 * StreamProcessor::compile, as a simulation of each program (and
 * perfbench's sim_sweep set-up) does. The programs are built and the
 * schedule cache warmed first, so the timed passes only look up.
 */
WarmPass
timeWarmLookups()
{
    using namespace sps;
    struct Point
    {
        std::unique_ptr<sim::StreamProcessor> proc;
        stream::StreamProgram prog;
    };
    std::map<std::string, workloads::AppEntry> apps;
    for (auto &app : workloads::appSuite())
        apps.emplace(app.name, app);
    std::vector<Point> points;
    for (const svc::EvalPoint &pt :
         svc::appSweepPlan(core::kGridC, core::kGridN).grid) {
        auto proc = std::make_unique<sim::StreamProcessor>(
            svc::effectiveSimConfig(pt));
        stream::StreamProgram prog =
            apps.at(pt.app).build(pt.size, proc->srf());
        points.push_back({std::move(proc), std::move(prog)});
    }
    return fastestWarmPass([&] {
        uint64_t lookups = 0;
        for (Point &p : points)
            for (const stream::StreamOp &op : p.prog.ops())
                if (op.k) {
                    p.proc->compile(*op.k);
                    ++lookups;
                }
        return lookups;
    });
}

/**
 * Drive EvalClient::appPerformance against an in-process EvalServer
 * on a temporary socket. The untimed first sweep fills the service's
 * memory tier, so every timed request is a memory-tier hit delivered
 * over the socket.
 */
WarmPass
timeWarmDaemon(sps::core::EvalEngine &eng)
{
    using namespace sps;
    const std::string sock = "/tmp/bench_headline_" +
                             std::to_string(::getpid()) + ".sock";
    svc::EvalService service(&eng);
    svc::EvalServer server(&service, sock);
    svc::EvalClient client(sock);
    return fastestWarmPass([&] {
        uint64_t requests0 = server.counters().requests;
        client.appPerformance(core::kGridC, core::kGridN);
        return server.counters().requests - requests0;
    });
}

/** Deterministic inputs for one Table-4 kernel. */
std::vector<sps::interp::StreamData>
makeTable4Inputs(const std::string &name, int64_t records)
{
    using namespace sps;
    using interp::StreamData;
    Prng rng{0xBE7C4ull};
    auto ints = [&](int per_record, int32_t lo, int32_t hi) {
        std::vector<int32_t> v;
        v.reserve(static_cast<size_t>(records) * per_record);
        for (int64_t i = 0; i < records * per_record; ++i)
            v.push_back(lo + static_cast<int32_t>(rng.below(
                                 static_cast<uint32_t>(hi - lo))));
        return StreamData::fromInts(v, per_record);
    };
    auto floats = [&](int per_record, float lo, float hi) {
        std::vector<float> v;
        v.reserve(static_cast<size_t>(records) * per_record);
        for (int64_t i = 0; i < records * per_record; ++i)
            v.push_back(rng.uniform(lo, hi));
        return StreamData::fromFloats(v, per_record);
    };

    if (name == "blocksad")
        return {ints(workloads::kPixelsPerRecord, 0, 255),
                ints(workloads::kPixelsPerRecord, 0, 255)};
    if (name == "convolve")
        return {ints(workloads::kPixelsPerRecord, -512, 512)};
    if (name == "update")
        return {floats(2, -2.0f, 2.0f),
                floats(workloads::kUpdateRank, -1.0f, 1.0f)};
    if (name == "fft") {
        StreamData x = floats(8, -1.0f, 1.0f);
        std::vector<float> tw;
        tw.reserve(static_cast<size_t>(records) * 6);
        for (int64_t i = 0; i < records; ++i) {
            for (int q = 0; q < 3; ++q) {
                float ang = rng.uniform(0.0f, 6.283f);
                tw.push_back(std::cos(ang));
                tw.push_back(std::sin(ang));
            }
        }
        return {x, StreamData::fromFloats(tw, 6)};
    }
    if (name == "noise")
        return {floats(2, -20.0f, 20.0f)};
    if (name == "irast")
        return {ints(5, 0, 256)};
    return {};
}

/** Stream words moved by one run: all input plus all output words. */
int64_t
wordsPerRun(const std::vector<sps::interp::StreamData> &inputs,
            const sps::interp::ExecResult &result)
{
    int64_t words = 0;
    for (const auto &s : inputs)
        words += static_cast<int64_t>(s.words.size());
    for (const auto &s : result.outputs)
        words += static_cast<int64_t>(s.words.size());
    return words;
}

/** Rounds of the interleaved interpreter timing, fixed so every run
 *  does the same work. Each engine keeps its fastest call; with too
 *  few rounds that minimum still follows the host's load. */
constexpr int kInterpRounds = 60;

/** Wall-clock seconds of one call of `fn`. */
template <typename Fn>
double
secondsOf(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Passes of the codec timing; each direction keeps its fastest. */
constexpr int kCodecRepeats = 20;

/** The store codec over a set of results: ns per encoded byte. */
struct CodecRow
{
    size_t results = 0;
    size_t bytes = 0;
    double encodeNsPerByte = 0.0;
    double decodeNsPerByte = 0.0;
};

/**
 * Encode every result with store::encodeSimResult, then decode every
 * encoding into a fresh SimResult; each pass covers all of them, and
 * each direction's ns per byte comes from its fastest of
 * kCodecRepeats passes.
 */
CodecRow
timeCodec(const std::vector<sps::core::AppPoint> &pts)
{
    using namespace sps;
    CodecRow row;
    row.results = pts.size();
    std::vector<store::ByteWriter> enc;
    double encode_s = std::numeric_limits<double>::infinity();
    double decode_s = encode_s;
    for (int r = 0; r < kCodecRepeats; ++r) {
        std::vector<store::ByteWriter> w(pts.size());
        encode_s = std::min(encode_s, secondsOf([&] {
            for (size_t i = 0; i < pts.size(); ++i)
                store::encodeSimResult(pts[i].result, &w[i]);
        }));
        enc = std::move(w);
    }
    for (const store::ByteWriter &w : enc)
        row.bytes += w.bytes().size();
    for (int r = 0; r < kCodecRepeats; ++r)
        decode_s = std::min(decode_s, secondsOf([&] {
            for (const store::ByteWriter &w : enc) {
                sim::SimResult back;
                if (!store::decodeSimResult(w.bytes(), &back))
                    std::fprintf(stderr, "codec: a result failed to "
                                         "decode\n");
            }
        }));
    const double bytes = static_cast<double>(row.bytes);
    row.encodeNsPerByte = bytes > 0 ? encode_s * 1e9 / bytes : 0.0;
    row.decodeNsPerByte = bytes > 0 ? decode_s * 1e9 / bytes : 0.0;
    return row;
}

/** Passes of the DRAM replay timing; the fastest counts. */
constexpr int kDramRepeats = 20;

/**
 * One Figure-15 program's loads and stores as the stream controller
 * submits them, cut into the batches it resolves: a batch ends before
 * an op that depends on an unresolved transfer, and before an op that
 * finds the scoreboard full, which pending transfers occupy as well as
 * in-flight ops. Once the scoreboard has filled, every op issue
 * resolves the one transfer submitted since the last.
 */
struct DramProgram
{
    sps::mem::StreamMemConfig cfg;
    std::vector<sps::mem::TransferDesc> transfers;
    /** One past each batch's last transfer, in order. */
    std::vector<size_t> batchEnds;
    /** DRAM accesses the program's simulation counted. */
    int64_t accesses = 0;
};

/** Simulate every Figure-15 program once for the cycle each transfer
 *  is ready, and cut its transfers into batches. */
std::vector<DramProgram>
dramPrograms()
{
    using namespace sps;
    std::map<std::string, workloads::AppEntry> apps;
    for (auto &app : workloads::appSuite())
        apps.emplace(app.name, app);
    std::vector<DramProgram> progs;
    for (const svc::EvalPoint &pt :
         svc::appSweepPlan(core::kGridC, core::kGridN).grid) {
        sim::StreamProcessor proc(svc::effectiveSimConfig(pt));
        const stream::StreamProgram prog =
            apps.at(pt.app).build(pt.size, proc.srf());
        const sim::SimResult res = proc.run(prog);
        const stream::ProgramDeps deps = stream::analyzeDeps(prog);
        const auto &ops = prog.ops();
        DramProgram p;
        p.cfg = proc.config().memConfig;
        p.accesses = res.counters.dramAccesses;
        // The controller's scoreboard, by count: which op retires
        // first changes no batch.
        const size_t depth =
            static_cast<size_t>(proc.config().scoreboardDepth);
        size_t in_flight = 0;
        std::vector<bool> unresolved(ops.size(), false);
        std::vector<size_t> pending;
        auto resolve = [&] {
            if (pending.empty())
                return;
            p.batchEnds.push_back(p.transfers.size());
            for (size_t i : pending)
                unresolved[i] = false;
            in_flight += pending.size();
            pending.clear();
        };
        for (size_t i = 0; i < ops.size(); ++i) {
            while (in_flight + pending.size() >= depth) {
                resolve();
                if (in_flight >= depth)
                    --in_flight;
            }
            for (int d : deps.deps[i])
                if (unresolved[static_cast<size_t>(d)]) {
                    resolve();
                    break;
                }
            const stream::StreamOp &op = ops[i];
            if (op.kind == stream::OpKind::Kernel) {
                ++in_flight;
                continue;
            }
            mem::TransferDesc desc;
            desc.words =
                prog.streams()[static_cast<size_t>(op.stream)].memWords();
            desc.baseWord = op.memBase;
            desc.strideWords = op.memStride;
            desc.recordWords = op.memRecordWords;
            desc.startCycle = res.timeline[i].readyCycle;
            desc.write = op.kind == stream::OpKind::Store;
            p.transfers.push_back(desc);
            pending.push_back(i);
            unresolved[i] = true;
        }
        resolve();
        progs.push_back(std::move(p));
    }
    return progs;
}

/** The DRAM model alone over the Figure-15 programs. */
struct DramRow
{
    size_t programs = 0;
    size_t resolves = 0;
    size_t transfers = 0;
    double seconds = 0.0;
    double nsPerResolve = 0.0;
};

/**
 * Replay every program's batches through a fresh StreamMemSystem:
 * submit a batch, resolve it and read each result. The time is the
 * fastest of kDramRepeats passes over all programs.
 */
DramRow
timeDram(const std::vector<DramProgram> &progs)
{
    using namespace sps;
    DramRow row;
    row.programs = progs.size();
    int64_t expected = 0;
    for (const DramProgram &p : progs) {
        row.resolves += p.batchEnds.size();
        row.transfers += p.transfers.size();
        expected += p.accesses;
    }
    row.seconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kDramRepeats; ++r) {
        int64_t accesses = 0;
        row.seconds = std::min(row.seconds, secondsOf([&] {
            for (const DramProgram &p : progs) {
                mem::StreamMemSystem memsys(p.cfg);
                size_t begin = 0;
                for (size_t end : p.batchEnds) {
                    for (size_t i = begin; i < end; ++i)
                        memsys.submit(p.transfers[i]);
                    memsys.resolveAll();
                    // A fresh system tickets its transfers 0, 1, ...
                    for (size_t i = begin; i < end; ++i)
                        accesses +=
                            memsys.result(static_cast<int>(i)).dramAccesses;
                    begin = end;
                }
            }
        }));
        if (accesses != expected)
            std::fprintf(stderr,
                         "dram: the replay made %lld DRAM accesses, the "
                         "simulations %lld\n",
                         static_cast<long long>(accesses),
                         static_cast<long long>(expected));
    }
    row.nsPerResolve =
        row.resolves > 0
            ? row.seconds * 1e9 / static_cast<double>(row.resolves)
            : 0.0;
    return row;
}

/** Passes of the grid build-and-simulate timing. */
constexpr int kGridSimRepeats = 10;

/** The Figure-15 programs built and simulated serially. */
struct GridSimRow
{
    size_t programs = 0;
    size_t streamOps = 0;
    /** Fastest pass's total build time, and fastest total run time. */
    double buildSeconds = 0.0;
    double runSeconds = 0.0;
};

/**
 * Build and run every Figure-15 program serially, as perfbench's
 * untraced sim_sweep pass does: each point gets a fresh
 * StreamProcessor, and its program and result are destroyed before
 * the next program is built. An untimed first pass warms every
 * schedule; build and run times are each the fastest of
 * kGridSimRepeats passes' totals.
 */
GridSimRow
timeGridSim()
{
    using namespace sps;
    using Clock = std::chrono::steady_clock;
    std::map<std::string, workloads::AppEntry> apps;
    for (auto &app : workloads::appSuite())
        apps.emplace(app.name, app);
    const std::vector<svc::EvalPoint> grid =
        svc::appSweepPlan(core::kGridC, core::kGridN).grid;
    GridSimRow row;
    row.programs = grid.size();
    row.buildSeconds = std::numeric_limits<double>::infinity();
    row.runSeconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r <= kGridSimRepeats; ++r) {
        std::chrono::duration<double> build{0}, run{0};
        size_t ops = 0;
        for (const svc::EvalPoint &pt : grid) {
            sim::StreamProcessor proc(svc::effectiveSimConfig(pt));
            auto t0 = Clock::now();
            const stream::StreamProgram prog =
                apps.at(pt.app).build(pt.size, proc.srf());
            auto t1 = Clock::now();
            const sim::SimResult res = proc.run(prog);
            build += t1 - t0;
            run += Clock::now() - t1;
            ops += prog.ops().size();
        }
        row.streamOps = ops;
        if (r > 0) {
            row.buildSeconds = std::min(row.buildSeconds, build.count());
            row.runSeconds = std::min(row.runSeconds, run.count());
        }
    }
    return row;
}

struct InterpRow
{
    std::string name;
    int64_t words = 0;
    double refWps = 0.0;
    double scalarWps = 0.0;
    double simdWps = 0.0;
    /** Fraction of steady-state body ops in fused regions under the
     *  default (partial) megastrip-fusion policy. */
    double fusedFraction = 0.0;
};

/** One interpreter table: every Table-4 kernel at one cluster count. */
struct InterpTable
{
    int clusters = 0;
    std::vector<InterpRow> rows;
    /** Total reference time over total SIMD time. */
    double aggregate = 0.0;
};

/**
 * Interpreter throughput per Table-4 kernel at C = c: stream words
 * moved per second (inputs + outputs) through the reference engine,
 * the lowered engine forced scalar, and the lowered engine on the
 * host's best SIMD backend. Each round calls the three engines once
 * each, in that order; each engine's time is its fastest call over
 * kInterpRounds rounds. The aggregate speedup is total reference time
 * over total SIMD time for the whole suite.
 */
InterpTable
interpThroughput(int c, int64_t records)
{
    using namespace sps;
    const interp::SimdBackend best = interp::bestSimdBackend();
    InterpTable table;
    table.clusters = c;
    std::vector<InterpRow> &rows = table.rows;
    double ref_total = 0.0, simd_total = 0.0;
    for (const auto &entry : workloads::kernelSuite()) {
        auto inputs = makeTable4Inputs(entry.name, records);
        InterpRow row;
        row.name = entry.name;
        // Also lowers the kernel, outside the timed rounds.
        row.words = wordsPerRun(
            inputs, interp::runKernel(*entry.kernel, c, inputs));
        row.fusedFraction =
            interp::LoweredCache::global()
                .get(*entry.kernel)
                .fusedOpFraction(interp::FusionPolicy::Partial);
        double ref = std::numeric_limits<double>::infinity();
        double scalar = ref, simd = ref;
        for (int r = 0; r < kInterpRounds; ++r) {
            ref = std::min(ref, secondsOf([&] {
                interp::runKernelReference(*entry.kernel, c, inputs);
            }));
            scalar = std::min(scalar, secondsOf([&] {
                interp::runKernel(*entry.kernel, c, inputs,
                                  interp::SimdBackend::Scalar);
            }));
            simd = std::min(simd, secondsOf([&] {
                interp::runKernel(*entry.kernel, c, inputs, best);
            }));
        }
        row.refWps = static_cast<double>(row.words) / ref;
        row.scalarWps = static_cast<double>(row.words) / scalar;
        row.simdWps = static_cast<double>(row.words) / simd;
        ref_total += ref;
        simd_total += simd;
        rows.push_back(row);
    }
    table.aggregate = simd_total > 0.0 ? ref_total / simd_total : 0.0;
    return table;
}

/** The printed form of one interpreter table. */
std::string
interpTableText(const InterpTable &table)
{
    using sps::TextTable;
    TextTable it;
    it.header({"Kernel", "ref Mwords/s", "scalar Mwords/s",
               "simd Mwords/s", "speedup", "fused frac"});
    for (const InterpRow &r : table.rows)
        it.row({r.name, TextTable::num(r.refWps / 1e6, 1),
                TextTable::num(r.scalarWps / 1e6, 1),
                TextTable::num(r.simdWps / 1e6, 1),
                TextTable::num(r.refWps > 0.0 ? r.simdWps / r.refWps
                                              : 0.0,
                               2) +
                    "x",
                TextTable::num(r.fusedFraction, 2)});
    return it.toString();
}

struct EnergyScalePoint
{
    int clusters = 0;
    double measuredNorm = 0.0; // scaled E/op, normalized to C=8
    double analyticNorm = 0.0; // Figure 10 curve, normalized to C=8
    double ratio = 0.0;        // measured / analytic
};

/**
 * Measured intercluster energy-per-ALU-op scaling: run the whole app
 * suite at each C (N = 5) through the simulator, aggregate the
 * paper-scope (no DRAM) energy over total ALU ops, and normalize to
 * the C = 8 baseline -- the measured counterpart of the analytical
 * Figure 10 energy curve.
 */
std::vector<EnergyScalePoint>
energyScaling(sps::core::EvalEngine &eng)
{
    using namespace sps;
    const std::vector<int> cs{1, 2, 4, 8, 16};
    auto apps = workloads::appSuite();
    struct Cell
    {
        double ew = 0.0;
        double ops = 0.0;
    };
    auto cells = eng.map(cs.size() * apps.size(), [&](size_t idx) {
        vlsi::MachineSize size{cs[idx / apps.size()], 5};
        const auto &app = apps[idx % apps.size()];
        core::StreamProcessorDesign d(size);
        sim::StreamProcessor proc = d.makeProcessor();
        stream::StreamProgram prog = app.build(size, proc.srf());
        sim::SimResult res = proc.run(prog);
        Cell cell;
        cell.ew = res.energy.scaledTotalEw();
        cell.ops = static_cast<double>(res.energy.aluOps);
        return cell;
    });

    std::map<int, Cell> by_c;
    for (size_t i = 0; i < cells.size(); ++i) {
        auto &acc = by_c[cs[i / apps.size()]];
        acc.ew += cells[i].ew;
        acc.ops += cells[i].ops;
    }

    vlsi::CostModel model;
    double measured_ref = by_c[8].ew / by_c[8].ops;
    double analytic_ref = model.energyPerAluOp({8, 5});
    std::vector<EnergyScalePoint> pts;
    for (int c : cs) {
        EnergyScalePoint pt;
        pt.clusters = c;
        pt.measuredNorm =
            (by_c[c].ew / by_c[c].ops) / measured_ref;
        pt.analyticNorm =
            model.energyPerAluOp({c, 5}) / analytic_ref;
        pt.ratio = pt.measuredNorm / pt.analyticNorm;
        pts.push_back(pt);
    }
    return pts;
}

void
writeEnergyJson(const char *path,
                const std::vector<EnergyScalePoint> &pts)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"alus_per_cluster\": 5,\n"
                 "  \"normalized_to_clusters\": 8,\n"
                 "  \"energy_per_alu_op\": [\n");
    for (size_t i = 0; i < pts.size(); ++i) {
        const EnergyScalePoint &p = pts[i];
        std::fprintf(f,
                     "    {\"clusters\": %d, \"measured\": %.6f, "
                     "\"analytic\": %.6f, \"ratio\": %.4f}%s\n",
                     p.clusters, p.measuredNorm, p.analyticNorm,
                     p.ratio, i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

void
writeSuiteJson(const char *path, const std::vector<SuiteRow> &rows,
               size_t pairs, const SlowestCompile &slowest,
               double compile_s, const WarmPass &warm,
               const WarmPass &daemon,
               const CodecRow &codec, const DramRow &dram,
               const GridSimRow &grid_sim)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"repeats\": %d,\n  \"suite\": [\n",
                 kSuiteRepeats);
    for (size_t i = 0; i < rows.size(); ++i) {
        const SuiteRow &r = rows[i];
        std::fprintf(f,
                     "    {\"run\": \"%s\", \"threads\": %d, "
                     "\"min_wall_s\": %.3f, \"kernel_compiles\": %llu, "
                     "\"app_sims\": %llu}%s\n",
                     r.name, r.threads, r.seconds,
                     static_cast<unsigned long long>(r.compiles),
                     static_cast<unsigned long long>(r.sims),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"compile_pairs\": %zu,\n"
                 "  \"slowest_compile\": {\"kernel\": \"%s\", "
                 "\"clusters\": %d, \"alus_per_cluster\": %d, "
                 "\"seconds\": %.4f},\n"
                 "  \"compile\": {\"pairs\": %zu, \"repeats\": %d, "
                 "\"min_wall_s\": %.4f},\n"
                 "  \"warm_lookups\": {\"lookups\": %llu, "
                 "\"min_wall_s\": %.4f},\n"
                 "  \"warm_daemon\": {\"requests\": %llu, "
                 "\"min_wall_s\": %.4f},\n"
                 "  \"codec\": {\"results\": %zu, \"bytes\": %zu, "
                 "\"repeats\": %d, \"encode_ns_per_byte\": %.3f, "
                 "\"decode_ns_per_byte\": %.3f},\n"
                 "  \"dram\": {\"programs\": %zu, \"resolves\": %zu, "
                 "\"transfers\": %zu, \"repeats\": %d, "
                 "\"min_wall_s\": %.4f, \"ns_per_resolve\": %.1f},\n"
                 "  \"grid_sim\": {\"programs\": %zu, "
                 "\"stream_ops\": %zu, \"repeats\": %d, "
                 "\"build_min_s\": %.4f, \"run_min_s\": %.4f}\n}\n",
                 pairs, slowest.pair->kernel->name.c_str(),
                 slowest.pair->size.clusters,
                 slowest.pair->size.alusPerCluster, slowest.seconds,
                 pairs, kCompileRepeats, compile_s,
                 static_cast<unsigned long long>(warm.ops),
                 warm.seconds,
                 static_cast<unsigned long long>(daemon.ops),
                 daemon.seconds, codec.results, codec.bytes,
                 kCodecRepeats, codec.encodeNsPerByte,
                 codec.decodeNsPerByte, dram.programs, dram.resolves,
                 dram.transfers, kDramRepeats, dram.seconds,
                 dram.nsPerResolve, grid_sim.programs, grid_sim.streamOps,
                 kGridSimRepeats, grid_sim.buildSeconds,
                 grid_sim.runSeconds);
    std::fclose(f);
}

/**
 * BENCH_interp.json: one row per (kernel, C), the gated table's rows
 * first; `aggregate_speedup` is the gated table's, and `aggregates`
 * lists every table's.
 */
void
writeInterpJson(const char *path, int64_t records,
                const std::vector<InterpTable> &tables)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"gate_clusters\": %d,\n  \"records\": %lld,\n"
                 "  \"rounds\": %d,\n"
                 "  \"simd_backend\": \"%s\",\n  \"kernels\": [\n",
                 tables.front().clusters,
                 static_cast<long long>(records), kInterpRounds,
                 sps::interp::simdBackendName(
                     sps::interp::bestSimdBackend()));
    for (size_t t = 0; t < tables.size(); ++t) {
        const std::vector<InterpRow> &rows = tables[t].rows;
        for (size_t i = 0; i < rows.size(); ++i) {
            const InterpRow &r = rows[i];
            const bool last = t + 1 == tables.size() && i + 1 == rows.size();
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"clusters\": %d, "
                "\"words_per_run\": %lld, "
                "\"reference_words_per_sec\": %.4e, "
                "\"scalar_words_per_sec\": %.4e, "
                "\"simd_words_per_sec\": %.4e, "
                "\"scalar_speedup\": %.3f, \"speedup\": %.3f, "
                "\"fused_fraction\": %.3f}%s\n",
                r.name.c_str(), tables[t].clusters,
                static_cast<long long>(r.words), r.refWps, r.scalarWps,
                r.simdWps,
                r.refWps > 0.0 ? r.scalarWps / r.refWps : 0.0,
                r.refWps > 0.0 ? r.simdWps / r.refWps : 0.0,
                r.fusedFraction, last ? "" : ",");
        }
    }
    std::fprintf(f, "  ],\n  \"aggregate_speedup\": %.3f,\n"
                    "  \"aggregates\": [",
                 tables.front().aggregate);
    for (size_t t = 0; t < tables.size(); ++t)
        std::fprintf(f, "%s{\"clusters\": %d, \"speedup\": %.3f}",
                     t ? ", " : "", tables[t].clusters,
                     tables[t].aggregate);
    std::fprintf(f, "]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    using sps::TextTable;
    const std::string usage = "bench_headline [--cache-dir DIR]";
    std::string cache_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache-dir") == 0)
            cache_dir = sps::bench::flagValue(argc, argv, &i, usage);
        else
            sps::bench::usageExit(usage, std::string("unknown option ") +
                                             argv[i]);
    }
    // Leaked on purpose: the global schedule cache keeps the pointer
    // past the end of main.
    sps::store::ResultStore *store = nullptr;
    if (!cache_dir.empty()) {
        store = new sps::store::ResultStore(cache_dir);
        sps::sched::ScheduleCache::global().attachStore(store);
    }

    sps::core::Headline h = sps::core::headlineNumbers(true);

    TextTable t;
    t.header({"Metric", "measured", "paper"});
    t.row({"640-ALU kernel speedup (HM)",
           TextTable::num(h.kernelSpeedup640, 1) + "x", "15.3x"});
    t.row({"640-ALU app speedup (HM)",
           TextTable::num(h.appSpeedup640, 1) + "x", "8.0x"});
    t.row({"640-ALU kernel GOPS (mean)",
           TextTable::num(h.kernelGops640, 0), ">300"});
    t.row({"640-ALU area/ALU degradation",
           TextTable::num(100 * h.areaPerAluDegradation640, 1) + "%",
           "2%"});
    t.row({"640-ALU energy/op degradation",
           TextTable::num(100 * h.energyPerOpDegradation640, 1) + "%",
           "7%"});
    t.row({"1280-ALU kernel speedup (HM)",
           TextTable::num(h.kernelSpeedup1280, 1) + "x", "27.9x"});
    t.row({"1280-ALU app speedup (HM)",
           TextTable::num(h.appSpeedup1280, 1) + "x", "10.4x"});

    sps::core::StreamProcessorDesign big({128, 10});
    t.row({"1280-ALU peak GOPS (subword x2)",
           TextTable::num(2 * big.peakGops(), 0), ">1000"});
    t.row({"1280-ALU power (W)",
           TextTable::num(big.powerWatts(), 1), "<10"});

    std::printf("Headline: scaled machines vs the 40-ALU baseline\n\n"
                "%s\n",
                t.toString().c_str());

    // --- Evaluation-engine throughput: the full figure suite ---
    sps::core::EvalEngine serial(1);
    sps::core::EvalEngine &parallel = sps::core::EvalEngine::global();
    auto &cache = parallel.cache();
    sps::svc::EvalService serial_svc(&serial, store);
    sps::svc::EvalService parallel_svc(&parallel, store);

    // "cold" empties the in-process tiers (schedule cache + service
    // memory); with --cache-dir the disk tier stays warm, which is
    // exactly what the cold rows then demonstrate.
    const std::vector<SuiteRow> suite_rows{
        timeSuite("serial, cold cache", serial, serial_svc, true),
        timeSuite("serial, warm cache", serial, serial_svc, false),
        timeSuite("parallel, cold cache", parallel, parallel_svc, true),
        timeSuite("parallel, warm cache", parallel, parallel_svc, false),
    };
    const SuiteRow &cold_serial = suite_rows[0];
    const SuiteRow &warm_serial = suite_rows[1];
    const SuiteRow &cold_parallel = suite_rows[2];

    TextTable e;
    e.header({"Figure-suite run", "threads", "wall (s)",
              "kernel compiles", "app sims"});
    for (const SuiteRow &r : suite_rows)
        e.row({r.name, std::to_string(r.threads),
               TextTable::num(r.seconds, 3), std::to_string(r.compiles),
               std::to_string(r.sims)});

    const std::vector<sps::core::SuiteCompile> pairs =
        sps::core::suiteCompiles();
    const SlowestCompile slowest = slowestCompile(pairs);
    const double compile_s = timeCompiles(pairs);
    const WarmPass warm = timeWarmLookups();
    const WarmPass daemon = timeWarmDaemon(parallel);
    // The suite rows left every grid result in the service's memory.
    const CodecRow codec = timeCodec(
        parallel_svc.appPerformance(sps::core::kGridC, sps::core::kGridN));
    const DramRow dram = timeDram(dramPrograms());
    const GridSimRow grid_sim = timeGridSim();
    std::printf("Evaluation engine: full figure-suite wall-clock "
                "(min of %d runs)\n\n"
                "%s\n"
                "parallel speedup over serial (cold): %.2fx; "
                "warm-cache speedup (serial): %.2fx\n"
                "slowest of %zu kernel compiles: %s at C=%d N=%d, "
                "%.4f s\n"
                "all %zu compiled serially through a cleared schedule "
                "cache: %.4f s (min of %d; written to "
                "BENCH_suite.json)\n"
                "warm kernel lookups of the Figure-15 programs: %llu "
                "in %.4f s (min of %d; written to BENCH_suite.json)\n"
                "warm Figure-15 sweep through the socket daemon: %llu "
                "requests in %.4f s (min of %d; written to "
                "BENCH_suite.json)\n"
                "store codec over the %zu Figure-15 results (%zu "
                "bytes): encode %.3f ns/B, decode %.3f ns/B (min of "
                "%d; written to BENCH_suite.json)\n"
                "DRAM model over the %zu Figure-15 programs: %zu "
                "resolves of %zu transfers in %.4f s, %.1f ns per "
                "resolve (min of %d; written to BENCH_suite.json)\n"
                "the %zu Figure-15 programs (%zu stream ops) built in "
                "%.4f s and simulated in %.4f s, serially with warm "
                "schedules (min of %d; written to BENCH_suite.json)\n",
                kSuiteRepeats, e.toString().c_str(),
                cold_parallel.seconds > 0.0
                    ? cold_serial.seconds / cold_parallel.seconds
                    : 0.0,
                warm_serial.seconds > 0.0
                    ? cold_serial.seconds / warm_serial.seconds
                    : 0.0,
                pairs.size(), slowest.pair->kernel->name.c_str(),
                slowest.pair->size.clusters,
                slowest.pair->size.alusPerCluster, slowest.seconds,
                pairs.size(), compile_s, kCompileRepeats,
                static_cast<unsigned long long>(warm.ops),
                warm.seconds, kSuiteRepeats,
                static_cast<unsigned long long>(daemon.ops),
                daemon.seconds, kSuiteRepeats, codec.results,
                codec.bytes, codec.encodeNsPerByte,
                codec.decodeNsPerByte, kCodecRepeats, dram.programs,
                dram.resolves, dram.transfers, dram.seconds,
                dram.nsPerResolve, kDramRepeats, grid_sim.programs,
                grid_sim.streamOps, grid_sim.buildSeconds,
                grid_sim.runSeconds, kGridSimRepeats);
    writeSuiteJson("BENCH_suite.json", suite_rows, pairs.size(),
                   slowest, compile_s, warm, daemon, codec, dram,
                   grid_sim);

    // --- Cache tiers: where every request was answered ---
    // Attached after the timed runs, which pay nothing for it: the
    // registry reads each component's own counters in place. Leaked
    // like the store, since the global schedule cache keeps a pointer
    // into it past the end of main.
    auto *registry = new sps::obs::MetricsRegistry();
    cache.attachMetrics(registry);
    if (store)
        store->attachMetrics(registry);
    parallel_svc.attachMetrics(registry);
    std::printf("\nCache tiers%s%s (schedule cache + result store + "
                "parallel eval service):\n",
                cache_dir.empty() ? "" : ", --cache-dir ",
                cache_dir.c_str());
    for (const auto &line : sps::obs::counterLines(registry->snapshot()))
        std::printf("  %s\n", line.c_str());

    // --- Interpreter throughput: reference vs scalar vs SIMD, at the
    // gated C = 8 and at C = 3, the path of every C that does not
    // divide the vector width ---
    const int64_t interp_records = 8192;
    const std::vector<InterpTable> tables{
        interpThroughput(8, interp_records),
        interpThroughput(3, interp_records)};
    const double interp_gate = 10.0;
    const bool interp_fast = tables[0].aggregate >= interp_gate;
    for (const InterpTable &table : tables)
        std::printf("\nInterpreter throughput: Table-4 kernels at C=%d, "
                    "%lld records, fastest of %d interleaved rounds "
                    "(simd backend: %s)\n\n%s\n"
                    "aggregate simd-vs-reference speedup: %.2fx\n",
                    table.clusters,
                    static_cast<long long>(interp_records),
                    kInterpRounds,
                    sps::interp::simdBackendName(
                        sps::interp::bestSimdBackend()),
                    interpTableText(table).c_str(), table.aggregate);
    std::printf("C=%d aggregate gate: >= %.0fx: %s (C=%d reported "
                "only; written to BENCH_interp.json)\n",
                tables[0].clusters, interp_gate,
                interp_fast ? "yes" : "NO", tables[1].clusters);
    writeInterpJson("BENCH_interp.json", interp_records, tables);

    // --- Energy model: measured vs analytical Figure 10 scaling ---
    std::vector<EnergyScalePoint> epts = energyScaling(parallel);
    TextTable et;
    et.header({"C (N=5)", "measured E/op", "analytic E/op",
               "ratio"});
    bool within2x = true;
    for (const EnergyScalePoint &p : epts) {
        et.row({std::to_string(p.clusters),
                TextTable::num(p.measuredNorm, 3),
                TextTable::num(p.analyticNorm, 3),
                TextTable::num(p.ratio, 2) + "x"});
        if (p.ratio < 0.5 || p.ratio > 2.0)
            within2x = false;
    }
    std::printf("\nEnergy: measured vs analytical intercluster "
                "energy per ALU op (normalized to C=8)\n\n%s\n"
                "every point within 2x of the Figure 10 curve: %s "
                "(written to BENCH_energy.json)\n",
                et.toString().c_str(), within2x ? "yes" : "NO");
    writeEnergyJson("BENCH_energy.json", epts);
    return within2x && interp_fast ? 0 : 1;
}
