/**
 * @file
 * Host-SIMD backend selection for the lowered interpreter.
 *
 * The steady-state strips of interp::executeLowered are uniform data
 * parallelism across the cluster dimension (the paper's whole premise),
 * so they vectorize directly over the contiguous SoA value buffer:
 * AVX2 runs 8 int32/float lanes per op, SSE2 runs 4. Both tiers are
 * compiled into every binary via function target attributes and picked
 * at runtime from CPUID, so one build serves every host.
 *
 * Bit-exactness contract: every backend produces results bit-identical
 * to runKernelReference. Vector lanes use only strict per-lane IEEE
 * ops (no FMA contraction, no reassociation, denormals untouched); the
 * few ops whose vector instruction can differ from the scalar libm
 * call on special values (FFloor on signaling NaN, FMin/FMax on
 * unordered inputs) recompute exactly those lanes through the same
 * scalar expression the scalar engine uses, so equality holds by
 * construction. See DESIGN.md "SIMD backend".
 *
 * Every run uses the widest tier CPUID supports (bestSimdBackend) and
 * partial megastrip fusion unless the caller passes a backend or a
 * FusionPolicy explicitly, as the differential tests and benchmarks do.
 */
#ifndef SPS_INTERP_SIMD_H
#define SPS_INTERP_SIMD_H

#include <cstdint>
#include <vector>

namespace sps::interp {

/** Instruction-set tiers for the lowered executor's steady state. */
enum class SimdBackend : uint8_t
{
    Scalar = 0, ///< portable scalar span executor (always available)
    Sse2 = 1,   ///< 4-wide int32/float lanes (x86-64 baseline)
    Avx2 = 2,   ///< 8-wide int32/float lanes
};

/** Stable lower-case name ("scalar", "sse2", "avx2"). */
const char *simdBackendName(SimdBackend b);

/** True when `b` is compiled in AND this CPU can execute it. */
bool simdBackendSupported(SimdBackend b);

/** Every supported backend, Scalar first, widest last. */
std::vector<SimdBackend> availableSimdBackends();

/** The widest supported backend on this host, resolved once on
 *  first use. */
SimdBackend bestSimdBackend();

/**
 * Megastrip-fusion policy for the SIMD steady state. Fusion never
 * changes results (bit-identical by construction); Off exists for
 * differential testing.
 */
enum class FusionPolicy : uint8_t
{
    /** No megastrip fusion: every strip runs at width C. */
    Off = 0,
    /** Full fusion plus partial (prefix/suffix) fusion around the
     *  loop-carried serial core (the default). */
    Partial = 1,
};

/** Stable lower-case name ("off", "partial"). */
const char *fusionPolicyName(FusionPolicy p);

} // namespace sps::interp

#endif // SPS_INTERP_SIMD_H
