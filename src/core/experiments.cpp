#include "core/experiments.h"

#include <set>
#include <tuple>

#include "common/log.h"
#include "common/stats.h"
#include "core/eval_engine.h"
#include "workloads/suite.h"

namespace sps::core {

namespace {

/** Machine-wide inner-loop ALU throughput of a kernel. */
double
kernelPerf(const workloads::KernelEntry &entry, vlsi::MachineSize size)
{
    // QRD's housegen aside, the suite kernels are machine-independent
    // graphs; compile for this size and scale by the cluster count.
    StreamProcessorDesign d(size);
    return d.kernelOpsPerCycle(*entry.kernel);
}

KernelSpeedupData
kernelSpeedups(const std::vector<vlsi::MachineSize> &sizes,
               const std::vector<int> &axis, EvalEngine &eng)
{
    KernelSpeedupData out;
    out.axis = axis;
    auto suite = workloads::kernelSuite();
    const size_t cols = sizes.size();
    // One engine job per (kernel, size) pair; baselines are their own
    // jobs. Slot indexing keeps the series order deterministic.
    std::vector<double> base = eng.map(suite.size(), [&](size_t k) {
        return kernelPerf(suite[k], kBaseline);
    });
    std::vector<double> perf =
        eng.map(suite.size() * cols, [&](size_t idx) {
            return kernelPerf(suite[idx / cols], sizes[idx % cols]);
        });
    std::vector<std::vector<double>> speedups(
        suite.size(), std::vector<double>(cols, 0.0));
    for (size_t k = 0; k < suite.size(); ++k)
        for (size_t i = 0; i < cols; ++i)
            speedups[k][i] = perf[k * cols + i] / base[k];
    for (size_t k = 0; k < suite.size(); ++k)
        out.series.push_back(SpeedupSeries{suite[k].name, speedups[k]});
    std::vector<double> hm(cols);
    for (size_t i = 0; i < cols; ++i) {
        std::vector<double> col;
        col.reserve(suite.size());
        for (size_t k = 0; k < suite.size(); ++k)
            col.push_back(speedups[k][i]);
        hm[i] = harmonicMean(col);
    }
    out.series.push_back(SpeedupSeries{"harmonic mean", hm});
    return out;
}

} // namespace

std::vector<SuiteCompile>
suiteCompiles()
{
    std::vector<vlsi::MachineSize> sizes{kBaseline};
    for (int n : kGridN)
        for (int c : kGridC)
            sizes.push_back({c, n});
    std::vector<SuiteCompile> out;
    std::set<std::tuple<const kernel::Kernel *, int, int>> seen;
    auto add = [&](const kernel::Kernel *k, vlsi::MachineSize s) {
        if (seen.emplace(k, s.clusters, s.alusPerCluster).second)
            out.push_back({k, s});
    };
    for (const auto &entry : workloads::kernelSuite())
        for (vlsi::MachineSize s : sizes)
            add(entry.kernel, s);
    for (const auto &app : workloads::appSuite()) {
        for (vlsi::MachineSize s : sizes) {
            stream::StreamProgram prog = app.build(
                s, srf::SrfModel::forMachine(s, vlsi::Params::imagine()));
            for (const kernel::Kernel *k : prog.kernels())
                add(k, s);
        }
    }
    return out;
}

KernelSpeedupData
kernelIntraSpeedups(const std::vector<int> &n_values, int c,
                    EvalEngine *engine)
{
    std::vector<vlsi::MachineSize> sizes;
    for (int n : n_values)
        sizes.push_back(vlsi::MachineSize{c, n});
    return kernelSpeedups(sizes, n_values, resolveEngine(engine));
}

KernelSpeedupData
kernelInterSpeedups(const std::vector<int> &c_values, int n,
                    EvalEngine *engine)
{
    std::vector<vlsi::MachineSize> sizes;
    for (int c : c_values)
        sizes.push_back(vlsi::MachineSize{c, n});
    return kernelSpeedups(sizes, c_values, resolveEngine(engine));
}

PerfPerAreaData
table5PerfPerArea(const std::vector<int> &n_values,
                  const std::vector<int> &c_values, EvalEngine *engine)
{
    EvalEngine &eng = resolveEngine(engine);
    PerfPerAreaData out;
    out.nValues = n_values;
    out.cValues = c_values;
    auto suite = workloads::kernelSuite();
    vlsi::Params p = vlsi::Params::imagine();
    const double alu_area = p.wAlu * p.h;
    const size_t cols = c_values.size();
    std::vector<double> cells =
        eng.map(n_values.size() * cols, [&](size_t idx) {
            vlsi::MachineSize size{c_values[idx % cols],
                                   n_values[idx / cols]};
            StreamProcessorDesign d(size);
            double area_alus = d.area().total() / alu_area;
            std::vector<double> per_kernel;
            for (const auto &entry : suite) {
                double ops = d.kernelOpsPerCycle(*entry.kernel);
                per_kernel.push_back(ops / area_alus);
            }
            return harmonicMean(per_kernel);
        });
    for (size_t i = 0; i < n_values.size(); ++i)
        out.value.emplace_back(cells.begin() + i * cols,
                               cells.begin() + (i + 1) * cols);
    return out;
}

AppPoint
runApp(const std::string &app_name, vlsi::MachineSize size)
{
    for (const auto &app : workloads::appSuite()) {
        if (app.name != app_name)
            continue;
        StreamProcessorDesign d(size);
        sim::StreamProcessor proc = d.makeProcessor();
        stream::StreamProgram prog = app.build(size, proc.srf());
        sim::SimResult res = proc.run(prog);

        StreamProcessorDesign base(kBaseline);
        sim::StreamProcessor bproc = base.makeProcessor();
        stream::StreamProgram bprog = app.build(kBaseline, bproc.srf());
        sim::SimResult bres = bproc.run(bprog);

        AppPoint pt;
        pt.app = app_name;
        pt.size = size;
        pt.cycles = res.cycles;
        pt.speedup = static_cast<double>(bres.cycles) /
                     static_cast<double>(res.cycles);
        pt.gops = res.gops(d.clockGHz());
        pt.result = std::move(res);
        return pt;
    }
    fatal("unknown application %s", app_name.c_str());
}

Headline
headlineNumbers(bool include_apps, EvalEngine *engine)
{
    EvalEngine &eng = resolveEngine(engine);
    Headline h;
    vlsi::MachineSize big640{128, 5};
    vlsi::MachineSize big1280{128, 10};
    vlsi::CostModel model;

    h.areaPerAluDegradation640 =
        model.areaPerAlu(big640) / model.areaPerAlu(kBaseline) - 1.0;
    h.energyPerOpDegradation640 =
        model.energyPerAluOp(big640) / model.energyPerAluOp(kBaseline) -
        1.0;

    auto suite = workloads::kernelSuite();
    struct KernelVals
    {
        double sp640 = 0.0;
        double sp1280 = 0.0;
        double gops640 = 0.0;
    };
    StreamProcessorDesign d640(big640);
    std::vector<KernelVals> vals =
        eng.map(suite.size(), [&](size_t k) {
            const auto &entry = suite[k];
            double base = kernelPerf(entry, kBaseline);
            KernelVals v;
            v.sp640 = kernelPerf(entry, big640) / base;
            v.sp1280 = kernelPerf(entry, big1280) / base;
            sched::CompiledKernel ck = d640.compile(*entry.kernel);
            double subword = ck.aluOpsPerIteration > 0
                                 ? ck.gopsOpsPerIteration /
                                       ck.aluOpsPerIteration
                                 : 1.0;
            v.gops640 = ck.aluOpsPerCycle() * subword *
                        big640.clusters * d640.clockGHz();
            return v;
        });
    std::vector<double> sp640, sp1280, gops640;
    for (const auto &v : vals) {
        sp640.push_back(v.sp640);
        sp1280.push_back(v.sp1280);
        gops640.push_back(v.gops640);
    }
    h.kernelSpeedup640 = harmonicMean(sp640);
    h.kernelSpeedup1280 = harmonicMean(sp1280);
    h.kernelGops640 = arithmeticMean(gops640);

    if (include_apps) {
        auto apps = workloads::appSuite();
        std::vector<std::pair<double, double>> sp =
            eng.map(apps.size(), [&](size_t a) {
                return std::pair<double, double>{
                    runApp(apps[a].name, big640).speedup,
                    runApp(apps[a].name, big1280).speedup};
            });
        std::vector<double> a640, a1280;
        for (const auto &[s640, s1280] : sp) {
            a640.push_back(s640);
            a1280.push_back(s1280);
        }
        h.appSpeedup640 = harmonicMean(a640);
        h.appSpeedup1280 = harmonicMean(a1280);
    }
    return h;
}

} // namespace sps::core
