#include "sim/processor.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/log.h"
#include "sim/stream_controller.h"

namespace sps::sim {

namespace {
/** Throws unless every double reachable through `v`'s field table
 *  (common/fields.h) is finite; `name` is `v`'s table name. Every
 *  double leaf of SimConfig has a distinct name. */
template <typename T>
void
requireFinite(const T &v, const char *name)
{
    if constexpr (std::is_same_v<T, double>) {
        if (!std::isfinite(v))
            throw std::invalid_argument(std::string("bad config: ") +
                                        name + " must be finite, got " +
                                        std::to_string(v));
    } else if constexpr (HasFields<T>) {
        forEachField(v, [](const char *n, const auto &m) {
            requireFinite(m, n);
        });
    }
}

/**
 * `cfg`, once the leaves checked here are known to be runnable. A
 * client's config override reaches here, so a bad value is an
 * exception the evaluation service returns as an error. A NaN or
 * infinite double poisons every figure computed from it; t_cyc and
 * the FO4 delay set the clock and the pipelining, so each must be
 * positive. A scoreboard with no entries can never issue, and a
 * negative issue cost or pipe fill runs the host channel or the
 * microcontroller backwards. Params that size the SRF at no words (or
 * at more than its int64_t word counts hold) leave no SRF to allocate.
 * Each check is written so that NaN fails it; all run before any
 * member is built from `cfg`.
 */
SimConfig
validated(const SimConfig &cfg)
{
    requireFinite(cfg, "sim_config");
    if (!(cfg.params.tCyc > 0 && cfg.tech.fo4Ps > 0))
        throw std::invalid_argument(
            "bad config: t_cyc " + std::to_string(cfg.params.tCyc) +
            " and fo4_ps " + std::to_string(cfg.tech.fo4Ps) +
            " must both be positive");
    if (cfg.scoreboardDepth < 1)
        throw std::invalid_argument(
            "bad controller config: scoreboard depth must be at least "
            "1, got " +
            std::to_string(cfg.scoreboardDepth));
    if (cfg.hostIssueCycles < 0)
        throw std::invalid_argument(
            "bad controller config: host issue cycles must not be "
            "negative, got " +
            std::to_string(cfg.hostIssueCycles));
    if (cfg.ucConfig.pipeFillCycles < 0)
        throw std::invalid_argument(
            "bad microcontroller config: pipe fill cycles must not be "
            "negative, got " +
            std::to_string(cfg.ucConfig.pipeFillCycles));
    // The words srf::SrfModel::forMachine gives the SRF.
    double srf_words =
        std::round(cfg.params.rM * cfg.params.tMem *
                   cfg.size.alusPerCluster) *
        cfg.size.clusters;
    if (!(srf_words >= 1 && srf_words < 0x1p62))
        throw std::invalid_argument(
            "bad params: r_m " + std::to_string(cfg.params.rM) +
            " and t_mem " + std::to_string(cfg.params.tMem) +
            " give an SRF of " + std::to_string(srf_words) +
            " words; need 1 to 2^62");
    return cfg;
}
} // namespace

StreamProcessor::StreamProcessor(SimConfig cfg)
    : cfg_(validated(cfg)),
      costModel_(cfg.params),
      machine_(cfg.size, costModel_),
      srf_(srf::SrfModel::forMachine(cfg.size, cfg.params)),
      memSys_(cfg.memConfig),
      accountant_(costModel_, cfg.size, cfg.tech, cfg.energyConfig)
{
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
