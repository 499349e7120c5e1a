/**
 * @file
 * FFT study: validate the radix-4 FFT numerically against a direct
 * DFT, then reproduce the paper's short-stream comparison -- FFT1K
 * vs FFT4K across cluster counts (Section 5.3: at large C the
 * difference "is due purely to stream length").
 */
#include <cmath>
#include <cstdio>

#include "common/prng.h"
#include "core/design.h"
#include "workloads/kernels/kernels.h"
#include "workloads/suite.h"

int
main()
{
    using namespace sps;

    // --- Numerics: kernel-built FFT vs direct DFT ------------------
    Prng rng(42);
    std::vector<float> signal;
    for (int i = 0; i < 2 * 1024; ++i)
        signal.push_back(rng.uniform(-1.0f, 1.0f));
    auto fft = workloads::runFftOnInterpreter(8, signal);
    auto dft = workloads::refFft(signal);
    double err = 0.0, mag = 0.0;
    for (size_t i = 0; i < fft.size(); ++i) {
        err += (fft[i] - dft[i]) * (fft[i] - dft[i]);
        mag += dft[i] * dft[i];
    }
    std::printf("1024-point FFT vs direct DFT: relative error %.2e\n",
                std::sqrt(err / mag));

    // --- Short-stream effects: FFT1K vs FFT4K ----------------------
    std::printf("\n%-12s %10s %10s %12s\n", "machine", "FFT1K",
                "FFT4K", "FFT4K/FFT1K");
    for (auto size :
         {vlsi::MachineSize{8, 5}, vlsi::MachineSize{32, 5},
          vlsi::MachineSize{128, 5}, vlsi::MachineSize{128, 10}}) {
        core::StreamProcessorDesign d(size);
        double gf[2];
        int idx = 0;
        for (int points : {1024, 4096}) {
            sim::StreamProcessor proc = d.makeProcessor();
            stream::StreamProgram prog =
                workloads::buildFftApp(size, proc.srf(), points);
            sim::SimResult r = proc.run(prog);
            gf[idx++] = r.gops(d.clockGHz());
        }
        std::printf("C=%-3d N=%-4d %8.1f %10.1f %11.2fx\n",
                    size.clusters, size.alusPerCluster, gf[0], gf[1],
                    gf[1] / gf[0]);
    }
    std::printf("\nLonger streams amortize per-call overheads: the "
                "FFT4K advantage grows with C.\n");
    return 0;
}
