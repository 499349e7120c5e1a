/**
 * @file
 * The seeded random loop bodies of RandomKernelModuloTest, shared with
 * ScheduleOracleTest: dataflow over two stream inputs with two
 * recurrences, FP and integer arithmetic, intercluster COMMs and
 * scratchpad reads.
 */
#ifndef SPS_TESTS_SCHED_RANDOM_KERNEL_H
#define SPS_TESTS_SCHED_RANDOM_KERNEL_H

#include <array>
#include <string>
#include <vector>

#include "common/prng.h"
#include "kernel/builder.h"
#include "vlsi/cost_model.h"

namespace sps::sched {

/** The machines every random kernel is scheduled on. */
inline constexpr std::array<vlsi::MachineSize, 4> kRandomKernelSizes{{
    {8, 2}, {8, 5}, {8, 14}, {128, 10}}};

/** The random kernel of `seed`. */
inline kernel::Kernel
randomKernel(int seed)
{
    Prng rng(static_cast<uint64_t>(seed) * 7919 + 13);
    kernel::KernelBuilder b("rand" + std::to_string(seed));
    int in = b.inStream("in", 2);
    int out = b.outStream("out");
    b.scratchpad(8);
    std::vector<kernel::ValueId> vals;
    vals.push_back(b.sbRead(in, 0));
    vals.push_back(b.sbRead(in, 1));
    // A couple of recurrences.
    std::vector<kernel::ValueId> phis;
    for (int i = 0; i < 2; ++i)
        phis.push_back(b.phi(isa::Word::fromFloat(0.f),
                             1 + static_cast<int>(rng.below(3))));
    vals.insert(vals.end(), phis.begin(), phis.end());
    int n_ops = 10 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n_ops; ++i) {
        auto pick = [&] {
            return vals[rng.below(static_cast<uint32_t>(vals.size()))];
        };
        kernel::ValueId v = kernel::kNoValue;
        switch (rng.below(6)) {
          case 0: v = b.fadd(pick(), pick()); break;
          case 1: v = b.fmul(pick(), pick()); break;
          case 2: v = b.iadd(pick(), pick()); break;
          case 3: v = b.fsub(pick(), pick()); break;
          case 4: v = b.comm(pick(), b.clusterId()); break;
          default: {
            auto addr = b.iand(pick(), b.constI(7));
            v = b.spRead(addr);
            break;
          }
        }
        vals.push_back(v);
    }
    for (size_t i = 0; i < phis.size(); ++i)
        b.setPhiSource(phis[i], vals[vals.size() - 1 - i]);
    b.sbWrite(out, vals.back());
    return b.build();
}

/** The seeds RandomKernelModuloTest runs. */
inline constexpr int kRandomKernelSeeds = 16;

} // namespace sps::sched

#endif // SPS_TESTS_SCHED_RANDOM_KERNEL_H
