/**
 * @file
 * The paper's evaluation from one driver: Tables 1, 2, 4 and 5,
 * Figures 6-15 and the Section 6 ablations, one row of kExperiments
 * each. `sps_bench <experiment>...` prints the named experiments'
 * tables to stdout and `sps_bench all` every row in order; a bare
 * `sps_bench`, an unknown experiment or a bad option prints the usage
 * and the list and exits 2, before any work.
 *
 *   --cache-dir DIR   read and persist schedules and app results
 *                     through the disk store rooted at DIR (a warm DIR
 *                     compiles and simulates nothing); the per-tier
 *                     counters print after the experiments
 *   --trace FILE      then record one app run at the C=8 N=5 baseline
 *                     as a Chrome trace_event JSON, loadable in
 *                     Perfetto / chrome://tracing
 *   --trace-app NAME  which app --trace records (default RENDER)
 */
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/design.h"
#include "core/eval_engine.h"
#include "core/experiments.h"
#include "core/multiproc.h"
#include "kernel/census.h"
#include "obs/metrics.h"
#include "sim/processor.h"
#include "svc/eval_service.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "vlsi/params.h"
#include "vlsi/sweep.h"
#include "workloads/kernels/kernels.h"
#include "workloads/suite.h"

namespace sps::bench {
namespace {

/** The evaluation service the app experiments route through; main()
 *  sets it up once, with the store when --cache-dir is given. */
svc::EvalService *g_service = nullptr;

void
printTable(const char *title, const TextTable &t)
{
    std::printf("%s\n\n%s\n", title, t.toString().c_str());
}

/**
 * Figures 6, 7, 9 and 10: area per ALU (or energy per ALU op) along a
 * sweep, normalized to its reference point, with the breakdown the
 * paper stacks (SRF / clusters / microcontroller / intercluster).
 */
void
printBreakdown(const char *title, const vlsi::SweepSeries &s,
               const char *axis, bool energy)
{
    auto parts = [&](const vlsi::SweepPoint &pt) {
        const auto &e = pt.energy;
        const auto &a = pt.area;
        return energy ? std::array{pt.energyPerAluOp, e.srf, e.clusters,
                                   e.microcontroller, e.interclusterComm}
                      : std::array{pt.areaPerAlu, a.srf, a.clusters,
                                   a.microcontroller, a.interclusterSwitch};
    };
    double ref = parts(s.points[s.refIndex])[0];
    TextTable t;
    t.header({axis, energy ? "energy/op (norm)" : "area/ALU (norm)",
              "SRF", "clusters", "uc",
              energy ? "inter-comm" : "inter-switch"});
    for (const auto &pt : s.points) {
        double alus = pt.size.totalAlus();
        auto v = parts(pt);
        std::vector<std::string> row{
            std::to_string(std::strcmp(axis, "N") == 0
                               ? pt.size.alusPerCluster
                               : pt.size.clusters),
            TextTable::num(v[0] / ref, 3)};
        for (size_t i = 1; i < v.size(); ++i)
            row.push_back(TextTable::num(v[i] / alus / ref, 3));
        t.row(row);
    }
    printTable(title, t);
}

/**
 * Figures 13-14 and Table 5: one row per series, one column per axis
 * value (labelled `prefix` + value), `corner` over the row names.
 */
void
printSeries(const char *title, const char *corner, const char *prefix,
            const std::vector<int> &axis,
            const std::vector<core::SpeedupSeries> &rows, int precision)
{
    TextTable t;
    std::vector<std::string> head{corner};
    for (int x : axis)
        head.push_back(prefix + std::to_string(x));
    t.header(head);
    for (const auto &series : rows) {
        std::vector<std::string> row{series.name};
        for (double v : series.values)
            row.push_back(TextTable::num(v, precision));
        t.row(row);
    }
    printTable(title, t);
}

/** The sweeps of Figures 6-7 (C = 8, normalized to N = 5) and 9-10
 *  (N = 5, normalized to C = 8). */
vlsi::SweepSeries
intraSweep()
{
    return vlsi::intraclusterSweep(vlsi::CostModel(), 8,
                                   vlsi::defaultIntraRange(), 5);
}

vlsi::SweepSeries
interSweep()
{
    return vlsi::interclusterSweep(vlsi::CostModel(), 5,
                                   vlsi::defaultInterRange(), 8);
}

/**
 * Table 1: the model parameter set (printed for provenance; every
 * other experiment derives from these values).
 */
void
table1()
{
    vlsi::Params p = vlsi::Params::imagine();
    TextTable t;
    t.header({"Param", "Value", "Description"});
    auto row = [&](const char *name, double v, const char *desc,
                   int prec = 1) {
        t.row({name, TextTable::num(v, prec), desc});
    };
    row("ASRAM", p.aSram, "area of 1 SRAM bit (grids)");
    row("ASB", p.aSb, "area per SB width (grids)");
    row("wALU", p.wAlu, "ALU datapath width (tracks)");
    row("wLRF", p.wLrf, "width of 2 LRFs (tracks)");
    row("wSP", p.wSp, "scratchpad datapath width (tracks)");
    row("h", p.h, "datapath height (tracks)", 0);
    row("v0", p.v0, "wire velocity (tracks/FO4)", 0);
    row("tcyc", p.tCyc, "FO4s per clock", 0);
    row("tmux", p.tMux, "2:1 mux delay (FO4)", 0);
    row("EALU", p.eAlu, "ALU op energy (Ew)", 0);
    row("ESRAM", p.eSram, "SRAM access energy per bit (Ew)");
    row("ESB", p.eSb, "SB access energy per bit (Ew)", 0);
    row("ELRF", p.eLrf, "LRF access energy (Ew)", 0);
    row("ESP", p.eSp, "SP access energy (Ew)", 0);
    row("T", p.tMem, "memory latency (cycles)", 0);
    row("b", p.b, "data width (bits)", 0);
    row("GSRF", p.gSrf, "SRF bank width per N (words)", 2);
    row("GSB", p.gSb, "SB accesses per ALU op", 2);
    row("GCOMM", p.gComm, "COMM units per N", 2);
    row("GSP", p.gSp, "SP units per N", 2);
    row("I0", p.i0, "initial VLIW width (bits)", 0);
    row("IN", p.iN, "VLIW width per FU (bits)", 0);
    row("LC", p.lC, "initial cluster SBs", 0);
    row("LO", p.lO, "non-cluster SBs", 0);
    row("LN", p.lN, "SBs per N", 2);
    row("rm", p.rM, "SRF words per ALU per latency cycle", 0);
    row("ruc", p.rUc, "microcode instructions", 0);
    printTable("Table 1: model parameters (Imagine-measured)", t);
}

/**
 * Table 2: kernel inner-loop characteristics -- ALU operations, SRF
 * accesses, intercluster communications, and scratchpad accesses per
 * iteration, with the per-ALU-op ratios in parentheses. Our
 * reconstructed kernels are printed next to the published counts.
 */
void
table2()
{
    TextTable t;
    t.header({"Kernel", "ALU Ops", "SRF Accesses", "Intercl. Comms",
              "SP Accesses", "paper (ALU/SRF/COMM/SP)"});
    for (const auto &e : workloads::table2Suite()) {
        kernel::Census c = kernel::takeCensus(*e.kernel);
        auto cell = [&](int n, double ratio) {
            return std::to_string(n) + " (" +
                   TextTable::num(ratio, 2) + ")";
        };
        t.row({e.name, std::to_string(c.aluOps),
               cell(c.srfAccesses, c.srfPerAlu()),
               cell(c.comms, c.commPerAlu()),
               cell(c.spAccesses, c.spPerAlu()),
               std::to_string(e.paperAlu) + "/" +
                   std::to_string(e.paperSrf) + "/" +
                   std::to_string(e.paperComm) + "/" +
                   std::to_string(e.paperSp)});
    }
    printTable(
        "Table 2: kernel inner-loop characteristics (ours vs paper)\n"
        "Counts differ where our stream formulation differs from the\n"
        "Imagine hand-written kernels; see EXPERIMENTS.md.",
        t);
}

/**
 * Figure 8: intracluster and intercluster switch traversal delay
 * (FO4) under intracluster scaling at C = 8. The 45 FO4 cycle and its
 * half-cycle intracluster budget are annotated, as are the extra
 * pipeline stages the Section 5 experiments charge.
 */
void
fig08()
{
    vlsi::CostModel model;
    TextTable t;
    t.header({"N", "intra (FO4)", "inter (FO4)", "intra stages",
              "COMM cycles"});
    for (int n : vlsi::defaultIntraRange()) {
        vlsi::MachineSize size{8, n};
        t.row({std::to_string(n),
               TextTable::num(model.intraDelayFo4(n), 1),
               TextTable::num(model.interDelayFo4(size), 1),
               std::to_string(model.intraPipeStages(n)),
               std::to_string(model.interCommCycles(size))});
    }
    printTable("Figure 8: switch delays, intracluster scaling (C=8; "
               "clock = 45 FO4, intra budget = 22.5 FO4)",
               t);
}

/**
 * Figure 11: switch delays under intercluster scaling (N = 5).
 * Intracluster delay stays constant; intercluster delay grows with C
 * but pipelines into whole cycles.
 */
void
fig11()
{
    vlsi::CostModel model;
    TextTable t;
    t.header({"C", "intra (FO4)", "inter (FO4)", "COMM cycles"});
    for (int c : vlsi::defaultInterRange()) {
        vlsi::MachineSize size{c, 5};
        t.row({std::to_string(c),
               TextTable::num(model.intraDelayFo4(5), 1),
               TextTable::num(model.interDelayFo4(size), 1),
               std::to_string(model.interCommCycles(size))});
    }
    printTable("Figure 11: switch delays, intercluster scaling "
               "(N=5; clock = 45 FO4)",
               t);
}

void
fig12()
{
    vlsi::CostModel model;
    double ref_area = model.areaPerAlu({32, 5});
    TextTable t;
    t.header({"C", "total ALUs (N=2)", "N=2", "total ALUs (N=5)",
              "N=5", "total ALUs (N=16)", "N=16"});
    for (int c : {8, 16, 32, 64, 128, 256}) {
        auto cell = [&](int n) {
            return TextTable::num(
                model.areaPerAlu(vlsi::MachineSize{c, n}) / ref_area,
                3);
        };
        t.row({std::to_string(c), std::to_string(c * 2), cell(2),
               std::to_string(c * 5), cell(5), std::to_string(c * 16),
               cell(16)});
    }
    printTable("Figure 12: area per ALU, combined scaling "
               "(normalized to C=32 N=5)",
               t);
}

void
table4()
{
    TextTable t;
    t.header({"Kernel/App", "Data", "Description"});
    auto dc = [](const kernel::Kernel &k) {
        return k.dataClass == kernel::DataClass::Half16 ? "16b"
                                                        : "FP/32b";
    };
    using namespace workloads;
    t.row({"Blocksad", dc(blocksadKernel()),
           "sum-of-absolute-differences for image processing"});
    t.row({"Convolve", dc(convolveKernel()),
           "convolution filter for image processing"});
    t.row({"Update", dc(updateKernel()), "matrix block update for QRD"});
    t.row({"FFT", dc(fftKernel()), "radix-4 fast Fourier transform"});
    t.row({"Noise", dc(noiseKernel()),
           "Perlin noise for a procedural marble shader"});
    t.row({"Irast", dc(irastKernel()), "triangle span rasterizer"});
    for (const auto &app : appSuite())
        t.row({app.name, "-", app.description});
    printTable("Table 4: kernels and applications", t);
}

/**
 * Table 5: kernel inner-loop performance per unit area (harmonic mean
 * over the six kernels; 1.0 = a machine that is pure ALU area running
 * one op per ALU per cycle).
 */
void
table5()
{
    auto data = core::table5PerfPerArea(core::kGridN, core::kGridC);
    std::vector<core::SpeedupSeries> rows;
    for (size_t i = 0; i < data.nValues.size(); ++i)
        rows.push_back({std::to_string(data.nValues[i]), data.value[i]});
    printSeries("Table 5: kernel performance per unit area "
                "(harmonic mean over kernels)",
                "N \\ C", "", data.cValues, rows, 3);
}

/**
 * Figure 15: application performance across the (C, N) grid on the
 * cycle-accurate stream-level simulator -- speedup over the C=8 N=5
 * machine per configuration, with sustained GOPS annotated at the
 * corner points, plus the harmonic-mean row.
 */
void
fig15()
{
    const std::vector<int> &cs = core::kGridC, &ns = core::kGridN;
    auto points = g_service->appPerformance(cs, ns);
    std::map<std::tuple<std::string, int, int>, const core::AppPoint *>
        at; // (app, N, C)
    for (const auto &pt : points)
        at[{pt.app, pt.size.alusPerCluster, pt.size.clusters}] = &pt;

    const auto apps = workloads::appSuite();
    for (int n : ns) {
        TextTable t;
        std::vector<std::string> head{"App (N=" + std::to_string(n) +
                                      ")"};
        for (int c : cs)
            head.push_back("C=" + std::to_string(c));
        t.header(head);
        std::vector<std::vector<double>> cols(cs.size());
        for (const auto &app : apps) {
            std::vector<std::string> row{app.name};
            for (size_t i = 0; i < cs.size(); ++i) {
                double speedup = at[{app.name, n, cs[i]}]->speedup;
                row.push_back(TextTable::num(speedup, 2));
                cols[i].push_back(speedup);
            }
            t.row(row);
        }
        std::vector<std::string> hm{"HARMONIC MEAN"};
        for (auto &col : cols)
            hm.push_back(TextTable::num(harmonicMean(col), 2));
        t.row(hm);
        std::printf("%s\n", t.toString().c_str());
    }

    // GOPS annotations at the paper's corner points.
    TextTable g;
    g.header({"App", "GOPS @ C=8 N=5", "GOPS @ C=128 N=10"});
    for (const auto &app : apps) {
        g.row({app.name, TextTable::num(at[{app.name, 5, 8}]->gops, 1),
               TextTable::num(at[{app.name, 10, 128}]->gops, 1)});
    }
    printTable("Figure 15: application speedups over C=8 N=5 "
               "(tables above) and sustained GOPS:",
               g);
}

/**
 * Ablation (Section 6 future work): non-fully-connected crossbars.
 * Sweeps crossbar connectivity and shows how sparse switches extend
 * the area- and energy-efficient range of intracluster scaling, at
 * the price of extra forwarding latency below 50% connectivity.
 */
void
ablationSwitch()
{
    for (double conn : {1.0, 0.75, 0.5, 0.25}) {
        vlsi::Params p = vlsi::Params::sparseSwitch(conn);
        vlsi::CostModel model(p);
        TextTable t;
        t.header({"N", "area/ALU (norm to N=5 full)", "energy/op",
                  "t_intra (FO4)"});
        vlsi::CostModel full;
        double ref_a = full.areaPerAlu({8, 5});
        double ref_e = full.energyPerAluOp({8, 5});
        for (int n : {5, 10, 16, 32, 64}) {
            vlsi::MachineSize s{8, n};
            t.row({std::to_string(n),
                   TextTable::num(model.areaPerAlu(s) / ref_a, 3),
                   TextTable::num(model.energyPerAluOp(s) / ref_e, 3),
                   TextTable::num(model.intraDelayFo4(n), 1)});
        }
        std::printf("Crossbar connectivity %.2f%s\n\n%s\n", conn,
                    conn < 0.5 ? "  (+1 forwarding stage)" : "",
                    t.toString().c_str());
    }

    // Effect on kernel throughput at the penalized design point.
    core::StreamProcessorDesign full({8, 16});
    core::StreamProcessorDesign sparse(
        {8, 16}, vlsi::Params::sparseSwitch(0.25));
    std::printf("Kernel throughput at C=8 N=16 (fft): full %.2f vs "
                "sparse(0.25) %.2f ALU ops/cycle/cluster\n",
                full.compile(workloads::fftKernel()).aluOpsPerCycle(),
                sparse.compile(workloads::fftKernel())
                    .aluOpsPerCycle());
}

/**
 * Ablation (Section 6 future work): intercluster scaling vs multiple
 * independent stream processors per chip. For a fixed 640-ALU budget,
 * splitting into M processors replicates microcode storage (worse
 * area per ALU) and shrinks the intercluster switch (better COMM
 * latency); task-pipelining balanced kernel stages across processors
 * at best breaks even on throughput.
 */
void
ablationMultiproc()
{
    vlsi::CostModel model;
    vlsi::MachineSize total{128, 5}; // the 640-ALU machine
    const int kernel_stages = 8;

    auto points = core::multiprocStudy(total, kernel_stages, model);
    TextTable t;
    t.header({"procs", "C each", "area/ALU (norm)", "energy/op (norm)",
              "COMM lat", "pipeline tput"});
    double ref_a = points[0].areaPerAlu;
    double ref_e = points[0].energyPerAluOp;
    for (const auto &pt : points) {
        t.row({std::to_string(pt.processors),
               std::to_string(pt.each.clusters),
               TextTable::num(pt.areaPerAlu / ref_a, 3),
               TextTable::num(pt.energyPerAluOp / ref_e, 3),
               std::to_string(pt.commLatency),
               TextTable::num(pt.pipelineThroughput, 2)});
    }
    std::printf("Multiprocessor alternative: 640 ALUs as M "
                "processors, %d balanced kernel stages\n\n%s\n",
                kernel_stages, t.toString().c_str());
    std::printf(
        "One large intercluster-scaled processor keeps the microcode\n"
        "storage amortized and full SIMD width per kernel; the\n"
        "multiprocessor only helps when stream lengths are shorter\n"
        "than the SIMD width (compare QRD in Figure 15).\n");
}

void
weightSensitivity()
{
    TextTable t;
    t.header({"weights scaled by", "C=128 area/ALU", "C=128 energy/op",
              "N=16 energy/op"});
    for (double s : {0.5, 0.75, 1.0, 1.25, 1.5}) {
        vlsi::Params p;
        p.kCommArea *= s;
        p.kCommEnergy *= s;
        p.kIntraEnergy *= s;
        p.kDistEnergy *= s;
        vlsi::CostModel m(p);
        t.row({TextTable::num(s, 2),
               TextTable::num(m.areaPerAlu({128, 5}) /
                                  m.areaPerAlu({8, 5}),
                              3),
               TextTable::num(m.energyPerAluOp({128, 5}) /
                                  m.energyPerAluOp({8, 5}),
                              3),
               TextTable::num(m.energyPerAluOp({8, 16}) /
                                  m.energyPerAluOp({8, 5}),
                              3)});
    }
    printTable("(1) calibration-weight sensitivity "
               "(paper anchors: 1.02, 1.07, 1.23)",
               t);
}

void
memoryBandwidthSweep()
{
    TextTable t;
    t.header({"mem GB/s", "DEPTH speedup", "mem busy", "CONV speedup",
              "mem busy", "RENDER speedup", "mem busy"});
    for (double gbs : {4.0, 16.0, 64.0}) {
        std::vector<std::string> row{TextTable::num(gbs, 0)};
        for (const char *name : {"DEPTH", "CONV", "RENDER"}) {
            for (const auto &app : workloads::appSuite()) {
                if (app.name != name)
                    continue;
                auto run = [&](vlsi::MachineSize size) {
                    sim::SimConfig cfg;
                    cfg.size = size;
                    cfg.memConfig.peakWordsPerCycle = gbs / 4.0;
                    sim::StreamProcessor proc(cfg);
                    return proc.run(app.build(size, proc.srf()));
                };
                sim::SimResult small = run({8, 5});
                sim::SimResult big = run({128, 10});
                double speedup =
                    static_cast<double>(small.cycles) /
                    static_cast<double>(big.cycles);
                row.push_back(TextTable::num(speedup, 1) + "x");
                // Memory-pin occupancy of the big machine: near 1.0
                // means the app has gone memory-bound at this
                // bandwidth point.
                row.push_back(
                    TextTable::num(big.memBusyFraction(), 2));
            }
        }
        t.row(row);
    }
    printTable("(2) C=128 N=10 app speedup and memory occupancy vs "
               "bandwidth (paper point: 16 GB/s)",
               t);
}

void
overheadSweep()
{
    TextTable t;
    t.header({"host cycles/op", "pipe fill", "FFT1K speedup",
              "FFT4K speedup"});
    for (int host : {2, 8, 32}) {
        for (int fill : {8, 32}) {
            std::vector<std::string> row{std::to_string(host),
                                         std::to_string(fill)};
            for (int points : {1024, 4096}) {
                auto run = [&](vlsi::MachineSize size) {
                    sim::SimConfig cfg;
                    cfg.size = size;
                    cfg.hostIssueCycles = host;
                    cfg.ucConfig.pipeFillCycles = fill;
                    sim::StreamProcessor proc(cfg);
                    return proc
                        .run(workloads::buildFftApp(size, proc.srf(),
                                                    points))
                        .cycles;
                };
                double speedup =
                    static_cast<double>(run({8, 5})) /
                    static_cast<double>(run({128, 10}));
                row.push_back(TextTable::num(speedup, 1) + "x");
            }
            t.row(row);
        }
    }
    printTable("(3) short-stream sensitivity to per-call overheads "
               "(C=128 N=10 vs C=8 N=5)",
               t);
}

void
srfCapacitySweep()
{
    TextTable t;
    t.header({"rm (SRF words/ALU/latency-cycle)", "SRF KB @ C=32 N=5",
              "QRD mem words", "QRD cycles"});
    for (double rm : {5.0, 10.0, 20.0, 40.0}) {
        sim::SimConfig cfg;
        cfg.size = {32, 5};
        cfg.params.rM = rm;
        sim::StreamProcessor proc(cfg);
        auto prog = workloads::buildQrd(cfg.size, proc.srf());
        auto r = proc.run(prog);
        t.row({TextTable::num(rm, 0),
               std::to_string(proc.srf().capacityWords * 4 / 1024),
               std::to_string(r.memWords),
               std::to_string(r.cycles)});
    }
    printTable("(4) SRF capacity (rm) and the QRD residency "
               "crossover at C=32 N=5 (paper rm = 20)",
               t);
}

/**
 * Sensitivity ablations for the design choices DESIGN.md calls out:
 *  (1) the reconstruction calibration weights (do the paper's anchors
 *      depend delicately on them?),
 *  (2) external memory bandwidth (where do the Figure 15 apps go
 *      memory-bound?),
 *  (3) per-call overheads (what do short streams really cost?), and
 *  (4) SRF capacity (rm) -- where the QRD residency crossover lands.
 */
void
ablationSensitivity()
{
    weightSensitivity();
    memoryBandwidthSweep();
    overheadSweep();
    srfCapacitySweep();
}

/** Run one app at the baseline with the tracer attached and export. */
int
exportTrace(const std::string &app_name, const std::string &path)
{
    for (const auto &app : workloads::appSuite()) {
        if (app.name != app_name)
            continue;
        core::StreamProcessorDesign d(core::kBaseline);
        sim::StreamProcessor proc = d.makeProcessor();
        stream::StreamProgram prog =
            app.build(core::kBaseline, proc.srf());
        trace::Tracer tracer;
        sim::RunOptions opts;
        opts.tracer = &tracer;
        sim::SimResult res = proc.run(prog, opts);
        if (!trace::writeChromeTrace(tracer, path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %zu trace events for %s (%lld cycles) to "
                    "%s -- open in https://ui.perfetto.dev\n",
                    tracer.size(), app_name.c_str(),
                    static_cast<long long>(res.cycles), path.c_str());
        return 0;
    }
    std::fprintf(stderr, "unknown application %s\n", app_name.c_str());
    return 1;
}

struct Experiment
{
    const char *name;
    /** The paper artifact the experiment reproduces. */
    const char *artifact;
    void (*print)();
};

/** Every experiment, in the order `sps_bench all` runs them. */
const Experiment kExperiments[] = {
    {"table1", "Table 1: model parameters", table1},
    {"table2", "Table 2: kernel inner-loop characteristics", table2},
    {"fig06", "Figure 6: area per ALU, intracluster scaling",
     [] {
         printBreakdown("Figure 6: area per ALU, intracluster scaling "
                        "(C=8, normalized to N=5)",
                        intraSweep(), "N", false);
     }},
    {"fig07", "Figure 7: energy per ALU op, intracluster scaling",
     [] {
         printBreakdown("Figure 7: energy per ALU op, intracluster "
                        "scaling (C=8, normalized to N=5)",
                        intraSweep(), "N", true);
     }},
    {"fig08", "Figure 8: switch delays, intracluster scaling", fig08},
    {"fig09", "Figure 9: area per ALU, intercluster scaling",
     [] {
         printBreakdown("Figure 9: area per ALU, intercluster scaling "
                        "(N=5, normalized to C=8)",
                        interSweep(), "C", false);
     }},
    {"fig10", "Figure 10: energy per ALU op, intercluster scaling",
     [] {
         printBreakdown("Figure 10: energy per ALU op, intercluster "
                        "scaling (N=5, normalized to C=8)",
                        interSweep(), "C", true);
     }},
    {"fig11", "Figure 11: switch delays, intercluster scaling", fig11},
    {"fig12", "Figure 12: area per ALU, combined scaling", fig12},
    {"table4", "Table 4: kernels and applications", table4},
    {"fig13", "Figure 13: intracluster kernel speedup",
     [] {
         auto d = core::kernelIntraSpeedups(core::kGridN, 8);
         printSeries("Figure 13: intracluster kernel speedup "
                     "(C=8, vs C=8 N=5)",
                     "Kernel", "N=", d.axis, d.series, 2);
     }},
    {"fig14", "Figure 14: intercluster kernel speedup",
     [] {
         auto d = core::kernelInterSpeedups(core::kGridC, 5);
         printSeries("Figure 14: intercluster kernel speedup "
                     "(N=5, vs C=8 N=5)",
                     "Kernel", "C=", d.axis, d.series, 2);
     }},
    {"table5", "Table 5: kernel performance per unit area", table5},
    {"fig15", "Figure 15: application speedups and GOPS", fig15},
    {"ablation_switch", "Section 6: sparse crossbars", ablationSwitch},
    {"ablation_multiproc", "Section 6: multiprocessor alternative",
     ablationMultiproc},
    {"ablation_sensitivity",
     "Sensitivity: calibration, bandwidth, overheads, SRF capacity",
     ablationSensitivity},
};

} // namespace
} // namespace sps::bench

int
main(int argc, char **argv)
{
    using namespace sps;
    using bench::kExperiments;
    std::string usage = "sps_bench [--cache-dir DIR] [--trace FILE] "
                        "[--trace-app NAME] all | <experiment>...\n"
                        "experiments:";
    for (const auto &e : kExperiments)
        usage += "\n  " + std::string(e.name) +
                 std::string(22 - std::strlen(e.name), ' ') +
                 e.artifact;

    std::string cache_dir, trace_path, trace_app = "RENDER";
    std::vector<const bench::Experiment *> run;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--cache-dir") == 0)
            cache_dir = bench::flagValue(argc, argv, &i, usage);
        else if (std::strcmp(arg, "--trace") == 0)
            trace_path = bench::flagValue(argc, argv, &i, usage);
        else if (std::strcmp(arg, "--trace-app") == 0)
            trace_app = bench::flagValue(argc, argv, &i, usage);
        else {
            size_t before = run.size();
            for (const auto &e : kExperiments)
                if (std::strcmp(arg, "all") == 0 ||
                    std::strcmp(arg, e.name) == 0)
                    run.push_back(&e);
            if (run.size() == before)
                bench::usageExit(usage, (bench::isFlag(arg)
                                             ? "unknown option "
                                             : "unknown experiment ") +
                                            std::string(arg));
        }
    }
    if (run.empty())
        bench::usageExit(usage);

    // The store and the registry are leaked on purpose: the global
    // schedule cache keeps pointers to both past the end of main.
    core::EvalEngine &engine = core::EvalEngine::global();
    store::ResultStore *store = nullptr;
    obs::MetricsRegistry *registry = nullptr;
    if (!cache_dir.empty()) {
        store = new store::ResultStore(cache_dir);
        registry = new obs::MetricsRegistry();
        engine.cache().attachStore(store);
        engine.cache().attachMetrics(registry);
        store->attachMetrics(registry);
    }
    svc::EvalService service(&engine, store);
    if (registry)
        service.attachMetrics(registry);
    bench::g_service = &service;

    for (const bench::Experiment *e : run)
        e->print();
    bench::g_service = nullptr;

    if (registry) {
        std::printf("cache tiers (--cache-dir %s):\n",
                    cache_dir.c_str());
        for (const auto &line : obs::counterLines(registry->snapshot()))
            std::printf("  %s\n", line.c_str());
        std::printf("\n");
    }
    if (!trace_path.empty())
        return bench::exportTrace(trace_app, trace_path);
    return 0;
}
