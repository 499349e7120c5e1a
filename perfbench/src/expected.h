/**
 * @file
 * Committed output digests. Every seed must reproduce them: the seed
 * only reorders work, so a mismatch means the outputs changed (or
 * depend on evaluation order). Regenerate only for an intentional
 * model change, from the "digest ... != expected" lines a run prints.
 */
#ifndef PERFBENCH_EXPECTED_H
#define PERFBENCH_EXPECTED_H

#include <cstdint>

namespace perfbench {

/** Figure suite: vlsi series, kernel speedups, Table 5, Figure-15. */
inline constexpr uint64_t kColdSweepDigest = 0x4cc330ebe8f44c6full;

/** Figure-15 grid: per-point speedups and encoded SimResults. */
inline constexpr uint64_t kSimSweepDigest = 0xa2f0a4a292c7813bull;

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_H
