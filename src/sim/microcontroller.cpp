#include "sim/microcontroller.h"

namespace sps::sim {

Microcontroller::CallTiming
Microcontroller::call(const std::string &kernel_name,
                      const sched::CompiledKernel &ck, int64_t records,
                      int64_t start, trace::Tracer *tracer, int op_id)
{
    CallTiming t;
    t.overheadCycles = cfg_.pipeFillCycles;
    t.iterations = (records + clusters_ - 1) / clusters_;
    t.cycles = t.overheadCycles + ck.loopCycles(t.iterations);

    if (SPS_TRACE_ENABLED(tracer)) {
        tracer->span("kernel", kernel_name, start, start + t.cycles,
                     op_id, trace::kTrackClusters,
                     {{"records", records},
                      {"iterations", t.iterations},
                      {"overhead_cycles", t.overheadCycles},
                      {"ii", ck.ii},
                      {"unroll", ck.unroll}});
    }
    return t;
}

} // namespace sps::sim
