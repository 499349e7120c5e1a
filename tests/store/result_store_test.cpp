// Tests for the disk-backed content-addressed result store: atomic
// put/get round trips, and the corruption contract -- a truncated,
// bit-flipped, mis-kinded, or version-mismatched entry is a miss
// (never a wrong result), and a later put heals it.
#include "store/result_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/resource.h>
#endif

#include "sched/machine.h"
#include "sched/modulo.h"
#include "workloads/suite.h"

namespace sps::store {
namespace {

std::string
freshRoot(const char *name)
{
    std::string root = ::testing::TempDir() + "sps_store_" + name;
    std::filesystem::remove_all(root);
    return root;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(ResultStoreTest, PutGetRoundTrip)
{
    ResultStore store(freshRoot("roundtrip"));
    Key key{Kind::Schedule, 0x1111, 0x2222, 0x3333};
    std::vector<uint8_t> payload{1, 2, 3, 4, 5};
    EXPECT_TRUE(store.put(key, payload));
    std::vector<uint8_t> back;
    EXPECT_TRUE(store.get(key, &back));
    EXPECT_EQ(back, payload);
    auto c = store.counters();
    EXPECT_EQ(c.writes, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.corrupt, 0u);
}

TEST(ResultStoreTest, AbsentKeyMisses)
{
    ResultStore store(freshRoot("absent"));
    Key key{Kind::SimResult, 1, 2, 3};
    std::vector<uint8_t> out;
    EXPECT_FALSE(store.get(key, &out));
    EXPECT_EQ(store.counters().misses, 1u);
}

TEST(ResultStoreTest, KeyComponentsSeparateEntries)
{
    ResultStore store(freshRoot("keys"));
    Key a{Kind::Schedule, 1, 2, 3};
    std::vector<uint8_t> pa{0xaa};
    ASSERT_TRUE(store.put(a, pa));
    for (Key other : {Key{Kind::SimResult, 1, 2, 3},
                      Key{Kind::Schedule, 9, 2, 3},
                      Key{Kind::Schedule, 1, 9, 3},
                      Key{Kind::Schedule, 1, 2, 9}}) {
        std::vector<uint8_t> out;
        EXPECT_FALSE(store.get(other, &out));
        EXPECT_NE(store.entryPath(other), store.entryPath(a));
    }
    std::vector<uint8_t> out;
    EXPECT_TRUE(store.get(a, &out));
    EXPECT_EQ(out, pa);
}

TEST(ResultStoreTest, EveryTruncationIsAMiss)
{
    ResultStore store(freshRoot("trunc"));
    Key key{Kind::Schedule, 7, 8, 9};
    std::vector<uint8_t> payload{10, 20, 30, 40, 50, 60};
    ASSERT_TRUE(store.put(key, payload));
    std::vector<uint8_t> entry = readFile(store.entryPath(key));
    ASSERT_GT(entry.size(), payload.size());

    for (size_t n = 0; n < entry.size(); ++n) {
        writeFile(store.entryPath(key),
                  std::vector<uint8_t>(entry.begin(),
                                       entry.begin() + n));
        std::vector<uint8_t> out{0xde, 0xad};
        EXPECT_FALSE(store.get(key, &out))
            << "entry truncated to " << n << " bytes served";
    }
    EXPECT_EQ(store.counters().hits, 0u);
    EXPECT_GT(store.counters().corrupt, 0u);

    // A rewrite heals the damaged entry.
    ASSERT_TRUE(store.put(key, payload));
    std::vector<uint8_t> out;
    EXPECT_TRUE(store.get(key, &out));
    EXPECT_EQ(out, payload);
}

TEST(ResultStoreTest, TrailingBytesAreAMiss)
{
    // The header's length must match the file: a valid entry with
    // bytes appended is damaged, not a hit on its first part.
    ResultStore store(freshRoot("trailing"));
    Key key{Kind::SimResult, 3, 1, 4};
    std::vector<uint8_t> payload{1, 5, 9, 2, 6};
    ASSERT_TRUE(store.put(key, payload));
    std::vector<uint8_t> entry = readFile(store.entryPath(key));
    for (size_t extra : {1, 7, 64}) {
        std::vector<uint8_t> longer = entry;
        longer.insert(longer.end(), extra, 0);
        writeFile(store.entryPath(key), longer);
        std::vector<uint8_t> out;
        EXPECT_FALSE(store.get(key, &out)) << extra << " bytes appended";
    }
    EXPECT_EQ(store.counters().hits, 0u);
    EXPECT_EQ(store.counters().corrupt, 3u);
}

TEST(ResultStoreTest, EveryBitFlipIsAMissOrTheTruth)
{
    ResultStore store(freshRoot("flip"));
    Key key{Kind::SimResult, 0xf00, 0xba5, 0x123};
    std::vector<uint8_t> payload;
    for (int i = 0; i < 64; ++i)
        payload.push_back(static_cast<uint8_t>(i * 7));
    ASSERT_TRUE(store.put(key, payload));
    std::vector<uint8_t> entry = readFile(store.entryPath(key));

    for (size_t byte = 0; byte < entry.size(); ++byte) {
        std::vector<uint8_t> damaged = entry;
        damaged[byte] ^= 0x40;
        writeFile(store.entryPath(key), damaged);
        std::vector<uint8_t> out;
        // Flipping a byte anywhere in the entry must never produce a
        // *different* payload: either validation rejects it (flips in
        // the magic/version/kind/length/checksum/payload), or the
        // payload served is still the original (flips in the reserved
        // header field, which carries no meaning).
        if (store.get(key, &out))
            EXPECT_EQ(out, payload) << "byte " << byte;
    }
}

TEST(ResultStoreTest, VersionMismatchIsAMiss)
{
    ResultStore store(freshRoot("version"));
    Key key{Kind::Schedule, 1, 1, 1};
    std::vector<uint8_t> payload{9, 9, 9};
    ASSERT_TRUE(store.put(key, payload));
    std::vector<uint8_t> entry = readFile(store.entryPath(key));
    // Header layout: magic u32, schema version u32 at offset 4.
    ASSERT_GE(entry.size(), 8u);
    entry[4] = static_cast<uint8_t>(kStoreSchemaVersion + 1);
    writeFile(store.entryPath(key), entry);
    std::vector<uint8_t> out;
    EXPECT_FALSE(store.get(key, &out));
    EXPECT_EQ(store.counters().corrupt, 1u);
}

TEST(ResultStoreTest, WrongKindInHeaderIsAMiss)
{
    ResultStore store(freshRoot("kind"));
    Key key{Kind::Schedule, 5, 5, 5};
    ASSERT_TRUE(store.put(key, {1}));
    std::vector<uint8_t> entry = readFile(store.entryPath(key));
    // Kind u32 lives at offset 8.
    ASSERT_GE(entry.size(), 12u);
    entry[8] = static_cast<uint8_t>(Kind::SimResult);
    writeFile(store.entryPath(key), entry);
    std::vector<uint8_t> out;
    EXPECT_FALSE(store.get(key, &out));
}

TEST(ResultStoreTest, TypedScheduleRoundTrip)
{
    ResultStore store(freshRoot("typed"));
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    sched::CompiledKernel ck =
        sched::compileKernel(workloads::convolveKernel(), m);
    Key key{Kind::Schedule, 42, 43, 44};
    EXPECT_TRUE(store.storeSchedule(key, ck));
    sched::CompiledKernel back;
    ASSERT_TRUE(store.loadSchedule(key, &back));
    EXPECT_EQ(back.ii, ck.ii);
    EXPECT_EQ(back.unroll, ck.unroll);
    EXPECT_EQ(back.srfAccessesPerIteration, ck.srfAccessesPerIteration);
}

/** A checksum-valid entry whose *payload* does not decode (e.g.
 *  written by a different codec) counts corrupt, not hit. */
TEST(ResultStoreTest, UndecodablePayloadIsAMiss)
{
    ResultStore store(freshRoot("undecodable"));
    Key key{Kind::Schedule, 6, 6, 6};
    ASSERT_TRUE(store.put(key, {1, 2, 3})); // not a CompiledKernel
    sched::CompiledKernel out;
    EXPECT_FALSE(store.loadSchedule(key, &out));
    auto c = store.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.corrupt, 1u);
}

TEST(ResultStoreTest, ConcurrentWritersConverge)
{
    ResultStore store(freshRoot("writers"));
    Key key{Kind::Schedule, 77, 88, 99};
    std::vector<uint8_t> payload(256, 0x5a);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 20; ++i)
                EXPECT_TRUE(store.put(key, payload));
        });
    for (auto &th : threads)
        th.join();
    std::vector<uint8_t> out;
    EXPECT_TRUE(store.get(key, &out));
    EXPECT_EQ(out, payload);
    EXPECT_EQ(store.counters().writeErrors, 0u);
    // No temp files left behind.
    int stray = 0;
    for (auto &e : std::filesystem::recursive_directory_iterator(
             store.root())) {
        if (e.path().string().find(".tmp.") != std::string::npos)
            ++stray;
    }
    EXPECT_EQ(stray, 0);
}

#ifndef _WIN32
/** A put whose data write fails part-way must clean up its temp file:
 *  the `.tmp.*` debris of failed puts used to accumulate forever in
 *  cache directories. RLIMIT_FSIZE makes the failure deterministic --
 *  any write past the limit fails with EFBIG (SIGXFSZ ignored), which
 *  is exactly the disk-full shape the bug escaped under. */
TEST(ResultStoreTest, FailedPutLeavesNoTempResidue)
{
    ResultStore store(freshRoot("failedput"));
    Key key{Kind::SimResult, 0xdead, 1, 2};
    // Warm the directory so the failure is in the data write, not in
    // directory creation.
    ASSERT_TRUE(store.put({Kind::SimResult, 1, 1, 1}, {1}));

    struct rlimit old_limit;
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit small = old_limit;
    small.rlim_cur = 4096;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);

    // A payload far beyond the file-size limit: the temp-file write
    // fails part-way through.
    std::vector<uint8_t> huge(1 << 20, 0x77);
    EXPECT_FALSE(store.put(key, huge));

    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_EQ(store.counters().writeErrors, 1u);
    std::vector<uint8_t> out;
    EXPECT_FALSE(store.get(key, &out));
    // The regression: no `.tmp.*` residue after the failed put.
    int stray = 0;
    for (auto &e : std::filesystem::recursive_directory_iterator(
             store.root())) {
        if (e.path().string().find(".tmp.") != std::string::npos)
            ++stray;
    }
    EXPECT_EQ(stray, 0);
    // And the store still works at full size afterwards.
    EXPECT_TRUE(store.put(key, huge));
    EXPECT_TRUE(store.get(key, &out));
    EXPECT_EQ(out, huge);
}
#endif // !_WIN32

TEST(ResultStoreTest, UncreatableRootDegradesGracefully)
{
    // A root under a regular file cannot be created.
    std::string base = freshRoot("blocked");
    writeFile(base, {0});
    ResultStore store(base + "/sub");
    Key key{Kind::Schedule, 1, 2, 3};
    std::vector<uint8_t> out;
    EXPECT_FALSE(store.get(key, &out));
    EXPECT_FALSE(store.put(key, {1}));
    EXPECT_EQ(store.counters().writeErrors, 1u);
}

} // namespace
} // namespace sps::store
