/**
 * @file
 * DEPTH end to end: run the stereo block-matching kernels on real
 * (synthetic) image data through the functional interpreter, then
 * simulate the full strip-mined application across machine sizes.
 * Demonstrates the producer-consumer locality story: only the raw
 * images and the final disparity map touch external memory.
 */
#include <cstdio>

#include "common/prng.h"
#include "core/design.h"
#include "interp/interpreter.h"
#include "workloads/kernels/kernels.h"
#include "workloads/suite.h"

int
main()
{
    using namespace sps;

    // --- Functional slice: match one strip of a stereo pair --------
    const int strip_records = 64; // 64 x 8-pixel blocks
    const int strip_px = strip_records * workloads::kPixelsPerRecord;
    Prng rng(2026);
    std::vector<int32_t> ref_px(strip_px), cand_px(strip_px);
    for (int i = 0; i < strip_px; ++i)
        ref_px[static_cast<size_t>(i)] =
            static_cast<int32_t>(rng.below(200)) + 20;
    // The candidate image is the reference shifted right by 3 pixels
    // plus a little noise, so disparity 3 should win most blocks.
    for (int i = 0; i < strip_px; ++i) {
        int32_t v = (i >= 3) ? ref_px[static_cast<size_t>(i - 3)] : 0;
        cand_px[static_cast<size_t>(i)] =
            v + static_cast<int32_t>(rng.below(3)) - 1;
    }
    auto res = interp::runKernel(
        workloads::blocksadKernel(), 8,
        {interp::StreamData::fromInts(ref_px, 8),
         interp::StreamData::fromInts(cand_px, 8)});
    auto sad = res.outputs[0].toInts();
    int64_t best_d0 = 0, best_d3 = 0;
    for (size_t r = 0; r < sad.size() / 4; ++r) {
        if (sad[4 * r + 2] == sad[4 * r])
            ++best_d0;
        if (sad[4 * r + 2] == sad[4 * r + 1])
            ++best_d3;
    }
    std::printf("functional strip: %lld/%d blocks best at d=0, "
                "%lld at d=3\n",
                static_cast<long long>(best_d0), strip_records,
                static_cast<long long>(best_d3));

    // --- Timing: the full 512x384 application across machines ------
    std::printf("\n%-14s %12s %9s %9s %8s\n", "machine", "cycles",
                "GOPS", "speedup", "mem busy");
    int64_t base_cycles = 0;
    for (auto size :
         {vlsi::MachineSize{8, 5}, vlsi::MachineSize{32, 5},
          vlsi::MachineSize{128, 5}, vlsi::MachineSize{128, 10}}) {
        core::StreamProcessorDesign d(size);
        sim::StreamProcessor proc = d.makeProcessor();
        stream::StreamProgram prog =
            workloads::buildDepth(size, proc.srf());
        sim::SimResult r = proc.run(prog);
        if (base_cycles == 0)
            base_cycles = r.cycles;
        std::printf("C=%-3d N=%-6d %12lld %9.1f %8.1fx %7.0f%%\n",
                    size.clusters, size.alusPerCluster,
                    static_cast<long long>(r.cycles),
                    r.gops(d.clockGHz()),
                    static_cast<double>(base_cycles) / r.cycles,
                    100.0 * r.memBusyFraction());
    }
    return 0;
}
