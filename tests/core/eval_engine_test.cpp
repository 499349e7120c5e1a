#include "core/eval_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/experiments.h"
#include "core/scaling_study.h"

namespace sps::core {
namespace {

// The determinism guarantee: a series produced with N threads is
// byte-identical to the 1-thread serial series. EvalEngine(4) forces
// real workers even on single-core hosts.

TEST(EvalEngineTest, MapPreservesIndexOrder)
{
    EvalEngine eng(4);
    auto out = eng.map(100, [](size_t i) {
        return static_cast<int>(i) * 3;
    });
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(EvalEngineTest, ExceptionsPropagateToCaller)
{
    EvalEngine eng(4);
    EXPECT_THROW(eng.forEach(64,
                             [](size_t i) {
                                 if (i == 17)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(EvalEngineTest, AllIndicesRunExactlyOnce)
{
    EvalEngine eng(4);
    std::vector<std::atomic<int>> counts(257);
    eng.forEach(counts.size(), [&](size_t i) { counts[i]++; });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(EvalEngineTest, ParallelKernelSpeedupsMatchSerial)
{
    EvalEngine serial(1), parallel(4);
    KernelSpeedupData a = kernelIntraSpeedups({2, 5, 10}, 8, &serial);
    KernelSpeedupData b = kernelIntraSpeedups({2, 5, 10}, 8, &parallel);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (size_t s = 0; s < a.series.size(); ++s) {
        EXPECT_EQ(a.series[s].name, b.series[s].name);
        ASSERT_EQ(a.series[s].values.size(), b.series[s].values.size());
        for (size_t i = 0; i < a.series[s].values.size(); ++i)
            // Bitwise equality, not EXPECT_NEAR: the engine must not
            // change what a point computes, only when it runs.
            EXPECT_EQ(a.series[s].values[i], b.series[s].values[i]);
    }
}

TEST(EvalEngineTest, ParallelTable5MatchesSerial)
{
    EvalEngine serial(1), parallel(4);
    PerfPerAreaData a = table5PerfPerArea({2, 5}, {8, 32}, &serial);
    PerfPerAreaData b = table5PerfPerArea({2, 5}, {8, 32}, &parallel);
    ASSERT_EQ(a.value.size(), b.value.size());
    for (size_t i = 0; i < a.value.size(); ++i) {
        ASSERT_EQ(a.value[i].size(), b.value[i].size());
        for (size_t j = 0; j < a.value[i].size(); ++j)
            EXPECT_EQ(a.value[i][j], b.value[i][j]);
    }
}

TEST(EvalEngineTest, ParallelDesignSweepMatchesSerial)
{
    EvalEngine serial(1), parallel(4);
    auto grid = designGrid({8, 16, 32, 64, 128}, {1, 2, 5, 10, 14});
    auto a = evaluateDesigns(grid, vlsi::Params::imagine(),
                             vlsi::Technology::fortyFiveNm(), &serial);
    auto b = evaluateDesigns(grid, vlsi::Params::imagine(),
                             vlsi::Technology::fortyFiveNm(), &parallel);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].areaMm2, b[i].areaMm2);
        EXPECT_EQ(a[i].powerWatts, b[i].powerWatts);
        EXPECT_EQ(a[i].peakGops, b[i].peakGops);
        EXPECT_EQ(a[i].areaPerAlu, b[i].areaPerAlu);
        EXPECT_EQ(a[i].energyPerAluOp, b[i].energyPerAluOp);
    }
}

TEST(EvalEngineTest, SecondSweepOverSameGridRecompilesNothing)
{
    EvalEngine eng(4);
    eng.cache().clear();

    kernelInterSpeedups({8, 16, 32}, 5, &eng);
    auto cold = eng.cache().counters();
    EXPECT_GT(cold.misses, 0u) << "first sweep must compile kernels";

    kernelInterSpeedups({8, 16, 32}, 5, &eng);
    auto warm = eng.cache().counters();
    EXPECT_EQ(warm.misses, cold.misses)
        << "second sweep over the same grid recompiled a kernel";
    EXPECT_GT(warm.hits, cold.hits);
}

TEST(EvalEngineTest, CacheSharedAcrossEnginesAndThreadCounts)
{
    EvalEngine serial(1), parallel(4);
    serial.cache().clear();
    kernelIntraSpeedups({2, 5}, 8, &serial);
    auto after_serial = serial.cache().counters();
    // The parallel engine sweeps the same grid: pure hits.
    kernelIntraSpeedups({2, 5}, 8, &parallel);
    auto after_parallel = parallel.cache().counters();
    EXPECT_EQ(after_parallel.misses, after_serial.misses);
    EXPECT_GT(after_parallel.hits, after_serial.hits);
}

} // namespace
} // namespace sps::core
