/**
 * @file
 * XXH64 (xxHash, 64-bit) over a byte range: the checksum of the two
 * 32-byte headers, store entries and socket frames
 * (store::headerChecksum). Reads eight-byte lanes with std::memcpy and
 * byte-swaps them on big-endian hosts, so a value is the same on every
 * platform and equals the reference xxHash library's XXH64().
 */
#ifndef SPS_COMMON_XXH64_H
#define SPS_COMMON_XXH64_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sps {

namespace xxh64_detail {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

/** Reverses the bytes of `v`; used only on big-endian hosts. */
template <typename T>
constexpr T
byteSwap(T v)
{
    T r = 0;
    for (size_t i = 0; i < sizeof v; ++i, v >>= 8)
        r = static_cast<T>((r << 8) | (v & 0xff));
    return r;
}
static_assert(byteSwap<uint64_t>(0x0102030405060708ull) ==
              0x0807060504030201ull);

/** The little-endian value of the sizeof(T) bytes at `p`. */
template <typename T>
T
readLe(const uint8_t *p)
{
    T v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap(v);
    return v;
}

inline uint64_t
xxhRound(uint64_t acc, uint64_t lane)
{
    acc += lane * kP2;
    return std::rotl(acc, 31) * kP1;
}

inline uint64_t
xxhMergeRound(uint64_t h, uint64_t acc)
{
    h ^= xxhRound(0, acc);
    return h * kP1 + kP4;
}

} // namespace xxh64_detail

/** XXH64 of `n` bytes at `data` under `seed`. */
inline uint64_t
xxh64(const uint8_t *data, size_t n, uint64_t seed)
{
    using namespace xxh64_detail;
    const uint8_t *p = data;
    const uint8_t *const end = data + n;
    uint64_t h = seed + kP5;
    if (n >= 32) {
        // Four independent accumulators, one per 8-byte lane of each
        // 32-byte stripe.
        uint64_t v1 = seed + kP1 + kP2;
        uint64_t v2 = seed + kP2;
        uint64_t v3 = seed;
        uint64_t v4 = seed - kP1;
        for (const uint8_t *const last = end - 32; p <= last; p += 32) {
            v1 = xxhRound(v1, readLe<uint64_t>(p));
            v2 = xxhRound(v2, readLe<uint64_t>(p + 8));
            v3 = xxhRound(v3, readLe<uint64_t>(p + 16));
            v4 = xxhRound(v4, readLe<uint64_t>(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxhMergeRound(h, v1);
        h = xxhMergeRound(h, v2);
        h = xxhMergeRound(h, v3);
        h = xxhMergeRound(h, v4);
    }
    h += static_cast<uint64_t>(n);
    // The tail: 8-byte lanes, then at most one 4-byte lane, then bytes.
    for (; end - p >= 8; p += 8) {
        h ^= xxhRound(0, readLe<uint64_t>(p));
        h = std::rotl(h, 27) * kP1 + kP4;
    }
    if (end - p >= 4) {
        h ^= static_cast<uint64_t>(readLe<uint32_t>(p)) * kP1;
        h = std::rotl(h, 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= static_cast<uint64_t>(*p) * kP5;
        h = std::rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

} // namespace sps

#endif // SPS_COMMON_XXH64_H
