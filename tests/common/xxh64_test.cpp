// Known answers for the XXH64 that checks every store entry and
// socket frame. Each value is the reference xxHash library's XXH64()
// at seed 0; the inputs reach every branch: the short path (under 32
// bytes) with byte, 4-byte and 8-byte tails, and the four-lane stripe
// loop with a tail.
#include "common/xxh64.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace sps {
namespace {

uint64_t
hashOf(const char *s)
{
    return xxh64(reinterpret_cast<const uint8_t *>(s), std::strlen(s), 0);
}

TEST(Xxh64Test, KnownAnswers)
{
    EXPECT_EQ(xxh64(nullptr, 0, 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(hashOf(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(hashOf("a"), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(hashOf("abc"), 0x44bc2cf5ad770999ull);
    // 39 bytes: one 32-byte stripe, then a 7-byte tail.
    EXPECT_EQ(hashOf("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ull);
    std::vector<uint8_t> bytes(100);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i);
    // 100 bytes: three stripes, then 8-byte and 4-byte tail lanes.
    EXPECT_EQ(xxh64(bytes.data(), bytes.size(), 0), 0x6ac1e58032166597ull);
}

/** Lanes are read with memcpy, so a range at any address hashes as
 *  its aligned copy does, and the seed changes the value. */
TEST(Xxh64Test, UnalignedRangeHashesLikeItsCopy)
{
    std::vector<uint8_t> buf(80);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 37 + 11);
    for (size_t off = 1; off < 8; ++off) {
        std::vector<uint8_t> copy(buf.begin() + off, buf.begin() + off + 71);
        EXPECT_EQ(xxh64(buf.data() + off, 71, 5), xxh64(copy.data(), 71, 5))
            << "offset " << off;
    }
    EXPECT_NE(xxh64(buf.data(), 71, 0), xxh64(buf.data(), 71, 1));
}

} // namespace
} // namespace sps
