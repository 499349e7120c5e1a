#include "kernel/fingerprint.h"

#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernel/builder.h"
#include "workloads/suite.h"

namespace sps::kernel {
namespace {

// The kernel fingerprint is the kernel half of every schedule's store
// key: changing its value orphans every stored schedule, so it must be
// deliberate.
TEST(KernelFingerprintTest, ScheduleStoreKeysArePinned)
{
    struct Pin
    {
        const char *name;
        const Kernel &k;
        uint64_t fingerprint;
    };
    const Pin pins[] = {
        {"blocksad", workloads::blocksadKernel(), 0xc79770b2ca8498efull},
        {"convolve", workloads::convolveKernel(), 0xc63f41e12dfd6872ull},
        {"update", workloads::updateKernel(), 0x156182f997471907ull},
        {"fft", workloads::fftKernel(), 0xe4d79ceac94efb4full},
        {"noise", workloads::noiseKernel(), 0x3c1cc02530af3261ull},
        {"irast", workloads::irastKernel(), 0x2dbbb9cd0f7bdfdcull},
        {"dct", workloads::dctKernel(), 0x84b015430f7d7b93ull},
        {"housegen_c8", workloads::housegenKernel(8),
         0xf802dc8d264e9ad8ull},
        {"housegen_c128", workloads::housegenKernel(128),
         0x2f247ea7d40d1adbull},
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(fingerprint(pin.k), pin.fingerprint) << pin.name;
        // A second call returns the same key.
        EXPECT_EQ(fingerprint(pin.k), pin.fingerprint) << pin.name;
    }
}

/** in + bias -> out. */
Kernel
biasKernel(int32_t bias)
{
    KernelBuilder b("bias");
    int in = b.inStream("in");
    int out = b.outStream("out");
    b.sbWrite(out, b.iadd(b.sbRead(in), b.constI(bias)));
    return b.build();
}

/** Point the copy's constant at `bias`, as if it had been built so. */
void
setBias(Kernel &k, int32_t bias)
{
    for (Op &op : k.ops)
        if (op.code == isa::Opcode::ConstInt)
            op.imm = isa::Word::fromInt(bias);
}

TEST(KernelFingerprintTest, EditedCopyOfHashedKernelHashesFresh)
{
    const Kernel original = biasKernel(1);
    const uint64_t before = fingerprint(original);
    const uint64_t edited = fingerprint(biasKernel(2));
    ASSERT_NE(before, edited);

    Kernel copied(original);
    setBias(copied, 2);
    EXPECT_EQ(fingerprint(copied), edited);

    Kernel assigned = biasKernel(3);
    (void)fingerprint(assigned);
    assigned = original;
    setBias(assigned, 2);
    EXPECT_EQ(fingerprint(assigned), edited);

    Kernel source(original);
    (void)fingerprint(source);
    Kernel moved(std::move(source));
    setBias(moved, 2);
    EXPECT_EQ(fingerprint(moved), edited);

    EXPECT_EQ(fingerprint(original), before);
}

TEST(KernelFingerprintTest, ConcurrentFirstCallsAgree)
{
    constexpr int kThreads = 8;
    const uint64_t expected = fingerprint(biasKernel(5));
    const Kernel fresh = biasKernel(5);
    std::vector<uint64_t> got(kThreads, 0);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            got[static_cast<size_t>(i)] = fingerprint(fresh);
        });
    for (std::thread &t : threads)
        t.join();
    for (uint64_t fp : got)
        EXPECT_EQ(fp, expected);
    EXPECT_EQ(fingerprint(fresh), expected);
}

} // namespace
} // namespace sps::kernel
