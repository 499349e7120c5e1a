#include "sim/processor.h"

#include <stdexcept>
#include <string>

#include "common/log.h"
#include "sim/stream_controller.h"

namespace sps::sim {

StreamProcessor::StreamProcessor(SimConfig cfg)
    : cfg_(cfg),
      costModel_(cfg.params),
      machine_(cfg.size, costModel_),
      srf_(srf::SrfModel::forMachine(cfg.size, cfg.params)),
      memSys_(cfg.memConfig),
      accountant_(costModel_, cfg.size, cfg.tech, cfg.energyConfig)
{
    // A client's config override reaches here, so a bad value is an
    // exception the evaluation service returns as an error: a
    // scoreboard with no entries can never issue, and a negative issue
    // cost runs the host channel backwards.
    if (cfg_.scoreboardDepth < 1)
        throw std::invalid_argument(
            "bad controller config: scoreboard depth must be at least "
            "1, got " +
            std::to_string(cfg_.scoreboardDepth));
    if (cfg_.hostIssueCycles < 0)
        throw std::invalid_argument(
            "bad controller config: host issue cycles must not be "
            "negative, got " +
            std::to_string(cfg_.hostIssueCycles));
}

StreamProcessor::~StreamProcessor() = default;

const sched::CompiledKernel &
StreamProcessor::compile(const kernel::Kernel &k)
{
    return sched::ScheduleCache::global().get(k, machine_);
}

SimResult
StreamProcessor::run(const stream::StreamProgram &prog)
{
    return run(prog, RunOptions{});
}

SimResult
StreamProcessor::run(const stream::StreamProgram &prog,
                     const RunOptions &opts)
{
    ControllerConfig ctrl;
    ctrl.clusters = cfg_.size.clusters;
    ctrl.alusPerCluster = cfg_.size.alusPerCluster;
    ctrl.hostIssueCycles = cfg_.hostIssueCycles;
    ctrl.scoreboardDepth = cfg_.scoreboardDepth;
    ctrl.srfPeakWordsPerCycle = srf_.peakWordsPerCycle;

    Microcontroller uc(cfg_.ucConfig, cfg_.size.clusters);
    srf::Allocator alloc(srf_.capacityWords);
    SimResult res = executeProgram(
        prog, ctrl, memSys_, uc, alloc,
        [this](const kernel::Kernel &k) -> const sched::CompiledKernel & {
            return compile(k);
        },
        opts);
    res.energy = accountant_.account(res);
    if (SPS_TRACE_ENABLED(opts.tracer)) {
        opts.tracer->setTrackName(trace::kTrackPower, "power");
        energy::emitPowerCounters(res, *opts.tracer);
    }
    return res;
}

} // namespace sps::sim
