/**
 * @file
 * Deterministic floating-point semantics for the NaN-sensitive
 * opcodes. These small functions ARE the architectural definition of
 * FAdd/FMul NaN propagation and of FMin/FMax/FFloor/FToI: every
 * execution engine (reference interpreter, scalar span executor, SIMD
 * lane patch-ups) must compute through them so results are
 * bit-identical by construction.
 *
 * Why not std::fmax / std::floor: GCC resolves those per call site —
 * sometimes a glibc libcall, sometimes an inline expansion, and
 * inside a target("avx2") function an AVX sequence. The variants
 * disagree on signed-zero ties (fmaxf(-0,+0) is -0 from glibc but +0
 * inlined) and on signaling-NaN quieting (roundps quiets, floorf
 * does not). Pinning the semantics here makes bit-exactness a source
 * property instead of a codegen accident.
 *
 * The chosen rules:
 *   - FAdd/FMul: a NaN operand propagates quieted, first operand
 *     preferred (the x86 first-source rule). Needed because both ops
 *     are commutative, so the compiler may swap scalar and vector
 *     operand orders independently and the surviving payload would
 *     otherwise depend on register allocation.
 *   - FMin/FMax: a NaN operand yields the other operand (C fmax
 *     rule); two NaNs yield the first, quieted. Ordered ties prefer
 *     the first operand, so fmax(-0,+0) = -0 and fmin(-0,+0) = -0.
 *   - FFloor: NaNs (payload and signaling bit included) pass through
 *     unchanged; everything else is exact, so std::floor is safe.
 *   - FToI: truncation toward zero; NaN and every input outside
 *     [-2^31, 2^31) give INT32_MIN (0x80000000), the x86 cvttss2si /
 *     cvttps2dq result. The plain cast is undefined there.
 */
#ifndef SPS_ISA_FP_H
#define SPS_ISA_FP_H

#include <bit>
#include <cmath>
#include <cstdint>

namespace sps::isa {

inline bool
fpIsNan(float x)
{
    return x != x;
}

/** Set the quiet bit, keeping sign and payload. */
inline float
fpQuiet(float x)
{
    return std::bit_cast<float>(std::bit_cast<uint32_t>(x) |
                                0x00400000u);
}

inline float
fpAdd(float x, float y)
{
    if (fpIsNan(x))
        return fpQuiet(x);
    if (fpIsNan(y))
        return fpQuiet(y);
    return x + y;
}

inline float
fpMul(float x, float y)
{
    if (fpIsNan(x))
        return fpQuiet(x);
    if (fpIsNan(y))
        return fpQuiet(y);
    return x * y;
}

inline float
fpMin(float x, float y)
{
    if (fpIsNan(x))
        return fpIsNan(y) ? fpQuiet(x) : y;
    if (fpIsNan(y))
        return x;
    return x <= y ? x : y;
}

inline float
fpMax(float x, float y)
{
    if (fpIsNan(x))
        return fpIsNan(y) ? fpQuiet(x) : y;
    if (fpIsNan(y))
        return x;
    return x >= y ? x : y;
}

inline float
fpFloor(float x)
{
    return fpIsNan(x) ? x : std::floor(x);
}

inline int32_t
fpToInt(float x)
{
    // -2^31 and 2^31 are exact floats; NaN fails both comparisons.
    if (!(x >= -0x1p31f && x < 0x1p31f))
        return INT32_MIN;
    return static_cast<int32_t>(x);
}

} // namespace sps::isa

#endif // SPS_ISA_FP_H
