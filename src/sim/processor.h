/**
 * @file
 * The stream processor simulator facade: configuration plus the run()
 * entry point. Mirrors the paper's methodology: kernel inner-loop
 * timing comes from static analysis of compiled kernels
 * (sched::compileKernel) and application time from cycle-accurate
 * stream-level execution with a scoreboard, a streaming memory
 * system, a finite-bandwidth host interface, and SRF capacity
 * accounting.
 */
#ifndef SPS_SIM_PROCESSOR_H
#define SPS_SIM_PROCESSOR_H

#include <memory>

#include "energy/accountant.h"
#include "mem/stream_mem.h"
#include "sched/kernel_perf.h"
#include "sched/schedule_cache.h"
#include "sim/microcontroller.h"
#include "sim/stats.h"
#include "sim/stream_controller.h"
#include "srf/srf.h"
#include "stream/program.h"
#include "vlsi/cost_model.h"
#include "vlsi/tech.h"

namespace sps::sim {

/** Full simulator configuration. */
struct SimConfig
{
    vlsi::MachineSize size{8, 5};
    vlsi::Params params = vlsi::Params::imagine();
    vlsi::Technology tech = vlsi::Technology::fortyFiveNm();
    mem::StreamMemConfig memConfig = mem::StreamMemConfig::fortyFiveNm();
    UcConfig ucConfig;
    /** Cycles the host channel needs per stream instruction. */
    int hostIssueCycles = 8;
    /** Stream controller scoreboard entries. */
    int scoreboardDepth = 16;
    /** Energy accounting knobs (idle fraction, DRAM extension). */
    energy::AccountantConfig energyConfig;
};

/** Field table (common/fields.h): the store key (svc::simConfigHash)
 *  and the protocol's config override both walk it. */
template <FieldsOf<SimConfig> S, typename F>
void
forEachField(S &c, F &&f)
{
    f("size", c.size);
    f("params", c.params);
    f("tech", c.tech);
    f("mem_config", c.memConfig);
    f("uc_config", c.ucConfig);
    f("host_issue_cycles", c.hostIssueCycles);
    f("scoreboard_depth", c.scoreboardDepth);
    f("energy_config", c.energyConfig);
}

/**
 * A configured stream processor: compiles kernels on first use
 * (through the shared schedule cache, so the simulator and the
 * static-analysis path always see the same schedule for a given
 * (kernel, machine) pair) and executes stream programs.
 */
class StreamProcessor
{
  public:
    /** Throws std::invalid_argument when any double of the config is
     *  NaN or infinite, t_cyc or the FO4 delay is not positive,
     *  scoreboardDepth is below 1, hostIssueCycles or pipeFillCycles
     *  is negative, or params leave the SRF without a word (a client's
     *  config override reaches here), and when the memory system
     *  rejects memConfig. */
    explicit StreamProcessor(SimConfig cfg);
    ~StreamProcessor();

    const SimConfig &config() const { return cfg_; }
    const srf::SrfModel &srf() const { return srf_; }
    const sched::MachineModel &machine() const { return machine_; }
    /** The accountant that fills SimResult::energy on every run. */
    const energy::EnergyAccountant &accountant() const
    {
        return accountant_;
    }

    /** Compile a kernel for this machine via the shared cache. */
    const sched::CompiledKernel &compile(const kernel::Kernel &k);

    /** Execute a stream program; returns timing and statistics. */
    SimResult run(const stream::StreamProgram &prog);

    /**
     * Execute with observability hooks: an attached tracer records
     * per-component events, an attached FunctionalContext executes
     * kernels functionally through the interpreter.
     */
    SimResult run(const stream::StreamProgram &prog,
                  const RunOptions &opts);

  private:
    SimConfig cfg_;
    vlsi::CostModel costModel_;
    sched::MachineModel machine_;
    srf::SrfModel srf_;
    mem::StreamMemSystem memSys_;
    energy::EnergyAccountant accountant_;
};

} // namespace sps::sim

#endif // SPS_SIM_PROCESSOR_H
