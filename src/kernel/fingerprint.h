/**
 * @file
 * Structural fingerprint of a kernel graph: name, data class, stream
 * signature, and the full op list (opcodes, operands, immediates,
 * ordering edges). Two kernels with equal fingerprints compute the
 * same function and schedule identically, so the fingerprint keys
 * every structural cache in the stack (sched::ScheduleCache,
 * interp::LoweredCache). Distinguishes same-named kernels with
 * different bodies (e.g. QRD's housegen, specialized per cluster
 * count).
 *
 * The graph is walked once per kernel object: the first call stores
 * the fingerprint in the kernel's memo and later calls return it, so
 * a cache lookup costs one atomic load, not a walk of every op. A
 * kernel is therefore not edited after its first fingerprint; a copy
 * starts with an empty memo and hashes its own, possibly edited, body.
 */
#ifndef SPS_KERNEL_FINGERPRINT_H
#define SPS_KERNEL_FINGERPRINT_H

#include <cstdint>

#include "kernel/ir.h"

namespace sps::kernel {

/** FNV-1a hash of the kernel's complete structure, memoized in `k`.
 *  Thread-safe: concurrent first calls compute and store the same
 *  value. */
uint64_t fingerprint(const Kernel &k);

} // namespace sps::kernel

#endif // SPS_KERNEL_FINGERPRINT_H
