#include "core/design.h"

#include "sched/schedule_cache.h"

namespace sps::core {

StreamProcessorDesign::StreamProcessorDesign(vlsi::MachineSize size,
                                             vlsi::Params params,
                                             vlsi::Technology tech)
    : size_(size),
      params_(params),
      tech_(tech),
      model_(params),
      machine_(size, model_)
{}

double
StreamProcessorDesign::areaMm2() const
{
    return tech_.gridsToMm2(area().total());
}

double
StreamProcessorDesign::powerWatts() const
{
    return tech_.powerWatts(energy().total(), clockGHz());
}

double
StreamProcessorDesign::peakGops() const
{
    return size_.totalAlus() * clockGHz();
}

sched::CompiledKernel
StreamProcessorDesign::compile(const kernel::Kernel &k) const
{
    return sched::ScheduleCache::global().get(k, machine_);
}

double
StreamProcessorDesign::kernelOpsPerCycle(const kernel::Kernel &k) const
{
    return compile(k).aluOpsPerCycle() * size_.clusters;
}

sim::StreamProcessor
StreamProcessorDesign::makeProcessor() const
{
    sim::SimConfig cfg;
    cfg.size = size_;
    cfg.params = params_;
    cfg.tech = tech_;
    return sim::StreamProcessor(cfg);
}

sim::SimResult
StreamProcessorDesign::simulate(const stream::StreamProgram &prog) const
{
    sim::StreamProcessor proc = makeProcessor();
    return proc.run(prog);
}

} // namespace sps::core
