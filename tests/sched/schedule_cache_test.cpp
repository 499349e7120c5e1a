#include "sched/schedule_cache.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "store/result_store.h"
#include "workloads/suite.h"

namespace sps::sched {
namespace {

MachineModel
machine(int c, int n)
{
    return MachineModel::forSize(vlsi::MachineSize{c, n});
}

TEST(ScheduleCacheTest, SecondLookupHits)
{
    ScheduleCache cache;
    MachineModel m = machine(8, 5);
    const kernel::Kernel &k = workloads::convolveKernel();
    const CompiledKernel &a = cache.get(k, m);
    const CompiledKernel &b = cache.get(k, m);
    EXPECT_EQ(&a, &b) << "same entry must be returned";
    auto ctr = cache.counters();
    EXPECT_EQ(ctr.misses, 1u);
    EXPECT_EQ(ctr.hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ScheduleCacheTest, RefusedCompileRethrowsOnEveryLookup)
{
    // An N=1 cluster has no multiplier: the refusal comes back on every
    // lookup of the key, and counts neither a compile nor a hit.
    ScheduleCache cache;
    MachineModel m = machine(8, 1);
    const kernel::Kernel &k = workloads::convolveKernel();
    EXPECT_THROW(cache.get(k, m), std::invalid_argument);
    EXPECT_THROW(cache.get(k, m), std::invalid_argument);
    auto ctr = cache.counters();
    EXPECT_EQ(ctr.misses, 0u);
    EXPECT_EQ(ctr.hits, 0u);
}

TEST(ScheduleCacheTest, MatchesDirectCompilation)
{
    ScheduleCache cache;
    MachineModel m = machine(16, 10);
    const kernel::Kernel &k = workloads::fftKernel();
    const CompiledKernel &cached = cache.get(k, m);
    CompiledKernel direct = compileKernel(k, m);
    EXPECT_EQ(cached.unroll, direct.unroll);
    EXPECT_EQ(cached.ii, direct.ii);
    EXPECT_EQ(cached.stages, direct.stages);
    EXPECT_EQ(cached.length, direct.length);
    EXPECT_EQ(cached.listLength, direct.listLength);
    EXPECT_EQ(cached.ii1, direct.ii1);
    EXPECT_EQ(cached.aluOpsPerIteration, direct.aluOpsPerIteration);
    EXPECT_EQ(cached.gopsOpsPerIteration, direct.gopsOpsPerIteration);
}

TEST(ScheduleCacheTest, DistinctMachinesMiss)
{
    ScheduleCache cache;
    const kernel::Kernel &k = workloads::updateKernel();
    cache.get(k, machine(8, 5));
    cache.get(k, machine(128, 5)); // C changes the COMM latency
    cache.get(k, machine(8, 14));  // N changes the FU mix
    auto ctr = cache.counters();
    EXPECT_EQ(ctr.misses, 3u);
    EXPECT_EQ(ctr.hits, 0u);
}

TEST(ScheduleCacheTest, MachineHashSeparatesSizes)
{
    MachineModel a = machine(8, 5);
    MachineModel b = machine(16, 5);
    MachineModel c = machine(8, 10);
    EXPECT_EQ(machineConfigHash(a), machineConfigHash(machine(8, 5)));
    EXPECT_NE(machineConfigHash(a), machineConfigHash(b));
    EXPECT_NE(machineConfigHash(a), machineConfigHash(c));
}

TEST(ScheduleCacheTest, FingerprintSeparatesKernels)
{
    uint64_t conv =
        kernelFingerprint(workloads::convolveKernel());
    uint64_t fft = kernelFingerprint(workloads::fftKernel());
    EXPECT_NE(conv, fft);
    // Same-named kernels with different bodies must not collide:
    // housegen is specialized per cluster count.
    EXPECT_NE(kernelFingerprint(workloads::housegenKernel(8)),
              kernelFingerprint(workloads::housegenKernel(16)));
}

TEST(ScheduleCacheTest, ConcurrentSameKeyCompilesOnce)
{
    ScheduleCache cache;
    MachineModel m = machine(32, 5);
    const kernel::Kernel &k = workloads::noiseKernel();
    std::vector<std::thread> threads;
    std::vector<const CompiledKernel *> seen(8, nullptr);
    for (size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back(
            [&, t] { seen[t] = &cache.get(k, m); });
    for (auto &th : threads)
        th.join();
    auto ctr = cache.counters();
    EXPECT_EQ(ctr.misses, 1u);
    EXPECT_EQ(ctr.hits, seen.size() - 1);
    for (const auto *p : seen)
        EXPECT_EQ(p, seen[0]);
}

TEST(ScheduleCacheTest, ClearResetsEverything)
{
    ScheduleCache cache;
    cache.get(workloads::dctKernel(), machine(8, 5));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    auto ctr = cache.counters();
    EXPECT_EQ(ctr.hits, 0u);
    EXPECT_EQ(ctr.misses, 0u);
}

TEST(ScheduleCacheTest, ClearKeepsReferencesValid)
{
    ScheduleCache cache;
    MachineModel m = machine(8, 5);
    const CompiledKernel &before =
        cache.get(workloads::convolveKernel(), m);
    int ii = before.ii;
    cache.clear();
    // The pre-clear reference must still be readable: clear() retires
    // the map instead of destroying entries.
    EXPECT_EQ(before.ii, ii);
    const CompiledKernel &after =
        cache.get(workloads::convolveKernel(), m);
    EXPECT_EQ(after.ii, ii);
    EXPECT_NE(&after, &before) << "recompile populates a fresh entry";
    EXPECT_EQ(before.ii, ii);
}

/** The documented clear() race: concurrent get() traffic while
 *  another thread clears repeatedly. Runs under TSan in CI; every
 *  reference obtained must stay readable after the clears. */
TEST(ScheduleCacheTest, ConcurrentClearAndGet)
{
    ScheduleCache cache;
    MachineModel m8 = machine(8, 5);
    MachineModel m16 = machine(16, 5);
    std::atomic<bool> stop{false};
    std::vector<const CompiledKernel *> refs[4];
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&, t] {
            while (!stop.load(std::memory_order_relaxed)) {
                const CompiledKernel &a =
                    cache.get(workloads::convolveKernel(), m8);
                const CompiledKernel &b =
                    cache.get(workloads::updateKernel(), m16);
                EXPECT_GT(a.ii, 0);
                EXPECT_GT(b.ii, 0);
                refs[t].push_back(&a);
                refs[t].push_back(&b);
            }
        });
    std::thread clearer([&] {
        for (int i = 0; i < 50; ++i) {
            cache.clear();
            std::this_thread::yield();
        }
        stop.store(true, std::memory_order_relaxed);
    });
    clearer.join();
    for (auto &r : readers)
        r.join();
    // Every reference handed out across all the clears still reads
    // valid data.
    for (auto &per_thread : refs)
        for (const CompiledKernel *ck : per_thread)
            EXPECT_GT(ck->ii, 0);
}

/** Every field of `ck`, in table order. */
std::vector<double>
fieldsOf(const CompiledKernel &ck)
{
    std::vector<double> out;
    forEachField(ck, [&](const char *, const auto &v) {
        out.push_back(static_cast<double>(v));
    });
    return out;
}

/** One kernel compiled for eight machines at once shares one plan,
 *  while clear() frees the plan tier under the compiles. Runs under
 *  TSan in CI. */
TEST(ScheduleCacheTest, ConcurrentMachinesOfOneKernel)
{
    const kernel::Kernel &k = workloads::fftKernel();
    const std::array<vlsi::MachineSize, 8> sizes{{{8, 2},
                                                  {8, 5},
                                                  {8, 10},
                                                  {8, 14},
                                                  {16, 5},
                                                  {32, 5},
                                                  {64, 10},
                                                  {128, 10}}};
    std::vector<std::vector<double>> want;
    for (vlsi::MachineSize s : sizes)
        want.push_back(fieldsOf(compileKernel(k, machine(s.clusters,
                                                         s.alusPerCluster))));
    ScheduleCache cache;
    for (int round = 0; round < 4; ++round) {
        const int n = static_cast<int>(sizes.size());
        std::atomic<int> started{0};
        std::atomic<int> done{0};
        std::vector<std::vector<double>> got(sizes.size());
        std::vector<std::thread> threads;
        for (size_t t = 0; t < sizes.size(); ++t)
            threads.emplace_back([&, t] {
                MachineModel m =
                    machine(sizes[t].clusters, sizes[t].alusPerCluster);
                started.fetch_add(1);
                while (started.load() < n)
                    std::this_thread::yield();
                got[t] = fieldsOf(cache.get(k, m));
                done.fetch_add(1);
            });
        std::thread clearer([&] {
            while (started.load() < n)
                std::this_thread::yield();
            for (int i = 0; i < 50 && done.load() < n; ++i) {
                cache.clear();
                std::this_thread::yield();
            }
        });
        for (auto &th : threads)
            th.join();
        clearer.join();
        for (size_t t = 0; t < sizes.size(); ++t)
            EXPECT_EQ(got[t], want[t])
                << "round " << round << ", C=" << sizes[t].clusters
                << " N=" << sizes[t].alusPerCluster;
    }
}

TEST(ScheduleCacheTest, DiskTierAvoidsRecompilation)
{
    std::string root =
        ::testing::TempDir() + "sps_sched_store_disktier";
    std::filesystem::remove_all(root);
    store::ResultStore store(root);

    MachineModel m = machine(16, 10);
    const kernel::Kernel &k = workloads::convolveKernel();

    ScheduleCache first;
    first.attachStore(&store);
    const CompiledKernel &compiled = first.get(k, m);
    // The compile is written back: the store is attached.
    EXPECT_EQ(first.counters().misses, 1u);
    EXPECT_EQ(store.counters().writes, 1u);

    // A second cache (standing in for a second process) decodes the
    // schedule from disk instead of compiling.
    ScheduleCache second;
    second.attachStore(&store);
    const CompiledKernel &decoded = second.get(k, m);
    auto ctr = second.counters();
    EXPECT_EQ(ctr.misses, 0u);
    EXPECT_EQ(ctr.diskHits, 1u);
    EXPECT_EQ(decoded.ii, compiled.ii);
    EXPECT_EQ(decoded.unroll, compiled.unroll);
    EXPECT_EQ(decoded.length, compiled.length);
    EXPECT_EQ(decoded.gopsOpsPerIteration,
              compiled.gopsOpsPerIteration);

    // clear() drops memory but not disk: the re-get disk-hits again.
    second.clear();
    second.get(k, m);
    EXPECT_EQ(second.counters().diskHits, 1u);
    EXPECT_EQ(second.counters().misses, 0u);
}

TEST(ScheduleCacheTest, CorruptStoredScheduleRecompiles)
{
    std::string root =
        ::testing::TempDir() + "sps_sched_store_corrupt";
    std::filesystem::remove_all(root);
    store::ResultStore store(root);

    MachineModel m = machine(8, 5);
    const kernel::Kernel &k = workloads::fftKernel();
    ScheduleCache first;
    first.attachStore(&store);
    const CompiledKernel &compiled = first.get(k, m);

    // Truncate every persisted schedule entry.
    for (auto &e : std::filesystem::directory_iterator(
             std::filesystem::path(root) / "sched"))
        std::filesystem::resize_file(
            e.path(), std::filesystem::file_size(e.path()) / 2);

    ScheduleCache second;
    second.attachStore(&store);
    const CompiledKernel &recompiled = second.get(k, m);
    auto ctr = second.counters();
    EXPECT_EQ(ctr.diskHits, 0u);
    EXPECT_EQ(ctr.misses, 1u) << "damaged entry must recompile";
    EXPECT_GT(store.counters().corrupt, 0u);
    EXPECT_EQ(recompiled.ii, compiled.ii);
}

} // namespace
} // namespace sps::sched
