/**
 * @file
 * Quickstart: write a kernel with the KernelC-like builder, run it on
 * the functional interpreter, compile it for two machine sizes, and
 * query the VLSI cost model -- the whole public API in one page.
 */
#include <cstdio>

#include "core/design.h"
#include "interp/interpreter.h"
#include "kernel/builder.h"

int
main()
{
    using namespace sps;

    // 1. Write a kernel: y = a*x + b over a stream of (x, a, b).
    kernel::KernelBuilder b("saxpy");
    int in = b.inStream("xab", 3);
    int out = b.outStream("y", 1);
    auto x = b.sbRead(in, 0);
    auto a = b.sbRead(in, 1);
    auto c = b.sbRead(in, 2);
    b.sbWrite(out, b.fadd(b.fmul(a, x), c));
    kernel::Kernel saxpy = b.build();

    // 2. Execute it functionally on an 8-cluster machine.
    std::vector<float> data;
    for (int i = 0; i < 16; ++i) {
        data.push_back(static_cast<float>(i)); // x
        data.push_back(2.0f);                  // a
        data.push_back(1.0f);                  // b
    }
    auto result = interp::runKernel(
        saxpy, 8, {interp::StreamData::fromFloats(data, 3)});
    std::printf("saxpy(3) = %.1f (expect 7.0)\n",
                result.outputs[0].toFloats()[3]);

    // 3. Compile it for two machine sizes and compare throughput.
    for (auto size : {vlsi::MachineSize{8, 5},
                      vlsi::MachineSize{128, 10}}) {
        core::StreamProcessorDesign d(size);
        sched::CompiledKernel ck = d.compile(saxpy);
        std::printf(
            "C=%3d N=%2d: II=%d, unroll=%d, %5.1f ALU ops/cycle "
            "machine-wide\n",
            size.clusters, size.alusPerCluster, ck.ii, ck.unroll,
            ck.aluOpsPerCycle() * size.clusters);
    }

    // 4. Ask the VLSI model what the machines cost.
    for (auto size : {vlsi::MachineSize{8, 5},
                      vlsi::MachineSize{128, 10}}) {
        core::StreamProcessorDesign d(size);
        std::printf("C=%3d N=%2d: %6.1f mm^2, %5.2f W, peak %6.0f "
                    "GOPS @ %.1f GHz\n",
                    size.clusters, size.alusPerCluster, d.areaMm2(),
                    d.powerWatts(), d.peakGops(),
                    d.clockGHz());
    }
    return 0;
}
