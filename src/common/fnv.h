/**
 * @file
 * FNV-1a incremental hasher shared by the structural caches (the
 * schedule cache and the lowered-kernel cache). 64-bit, byte-at-a-time,
 * deterministic across platforms.
 */
#ifndef SPS_COMMON_FNV_H
#define SPS_COMMON_FNV_H

#include <cstdint>
#include <string>
#include <string_view>

namespace sps {

/** Incremental FNV-1a over 64-bit words and strings. */
struct Fnv
{
    static constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr uint64_t kPrime = 0x100000001b3ull;

    uint64_t h = kOffset;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kPrime;
        }
    }

    /** The length, then the bytes. */
    void
    mix(const std::string &s)
    {
        mix(static_cast<uint64_t>(s.size()));
        mixBytes(s);
    }

    /** The bytes alone, without mix(std::string)'s length. */
    void
    mixBytes(std::string_view s)
    {
        for (char c : s) {
            h ^= static_cast<uint8_t>(c);
            h *= kPrime;
        }
    }
};

} // namespace sps

#endif // SPS_COMMON_FNV_H
