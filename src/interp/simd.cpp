#include "interp/simd.h"

#include "common/log.h"
#include "interp/exec_span.h"

#if defined(__x86_64__) || defined(_M_X64)
#define SPS_HAVE_X86_SIMD 1
#include <immintrin.h>
#else
#define SPS_HAVE_X86_SIMD 0
#endif

namespace sps::interp {

#if SPS_HAVE_X86_SIMD

// Each tier stamps out the same strip-executor body (simd_strips.inc)
// in its own namespace: function target attributes cannot be
// templated, so re-inclusion is how one source serves both ISAs.

namespace sse2_tier {
#define SPS_SIMD_W 4
#define SPS_SIMD_TARGET // x86-64 baseline: no attribute needed
#define SPS_SIMD_AVX 0
#include "interp/simd_strips.inc"
#undef SPS_SIMD_W
#undef SPS_SIMD_TARGET
#undef SPS_SIMD_AVX
} // namespace sse2_tier

namespace avx2_tier {
#define SPS_SIMD_W 8
#define SPS_SIMD_TARGET __attribute__((target("avx2")))
#define SPS_SIMD_AVX 1
#include "interp/simd_strips.inc"
#undef SPS_SIMD_W
#undef SPS_SIMD_TARGET
#undef SPS_SIMD_AVX
} // namespace avx2_tier

#endif // SPS_HAVE_X86_SIMD

const char *
simdBackendName(SimdBackend b)
{
    switch (b) {
      case SimdBackend::Scalar:
        return "scalar";
      case SimdBackend::Sse2:
        return "sse2";
      case SimdBackend::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
simdBackendSupported(SimdBackend b)
{
    switch (b) {
      case SimdBackend::Scalar:
        return true;
      case SimdBackend::Sse2:
#if SPS_HAVE_X86_SIMD
        return true; // SSE2 is the x86-64 baseline
#else
        return false;
#endif
      case SimdBackend::Avx2:
#if SPS_HAVE_X86_SIMD
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

std::vector<SimdBackend>
availableSimdBackends()
{
    std::vector<SimdBackend> v;
    for (SimdBackend b : {SimdBackend::Scalar, SimdBackend::Sse2,
                          SimdBackend::Avx2}) {
        if (simdBackendSupported(b))
            v.push_back(b);
    }
    return v;
}

SimdBackend
bestSimdBackend()
{
    static const SimdBackend best = availableSimdBackends().back();
    return best;
}

const char *
fusionPolicyName(FusionPolicy p)
{
    switch (p) {
      case FusionPolicy::Off:
        return "off";
      case FusionPolicy::Partial:
        return "partial";
    }
    return "unknown";
}

namespace detail {

void
runSpanSimd(SimdBackend backend, const ExecCtx &ctx, int64_t from,
            int64_t to, int ew, int bodyBegin, int bodyEnd, bool latch)
{
    // Below four lanes no tier fills a vector: run each op once
    // through the scalar executor rather than dispatching it twice.
    if (ew < 4) {
        runSpanScalar<false>(ctx, from, to, ew, bodyBegin, bodyEnd,
                             latch);
        return;
    }
#if SPS_HAVE_X86_SIMD
    // An 8-wide strip executor over fewer than 8 lanes would fall
    // through to all-scalar remainders; hand narrow widths to the
    // 4-wide tier instead.
    if (backend == SimdBackend::Avx2 && ew >= 8)
        avx2_tier::runSpan(ctx, from, to, ew, bodyBegin, bodyEnd,
                           latch);
    else
        sse2_tier::runSpan(ctx, from, to, ew, bodyBegin, bodyEnd,
                           latch);
#else
    // executeLowered clamps to a supported backend first, and Scalar
    // never routes here, so this is unreachable off x86-64.
    (void)ctx;
    (void)from;
    (void)to;
    (void)ew;
    (void)bodyBegin;
    (void)bodyEnd;
    (void)latch;
    panic("SIMD backend %s unavailable on this platform",
          simdBackendName(backend));
#endif
}

void
runSteadySimd(SimdBackend backend, const ExecCtx &ctx, int64_t from,
              int64_t to, int ew)
{
    runSpanSimd(backend, ctx, from, to, ew, 0,
                static_cast<int>(ctx.lk->body.size()),
                /*latch=*/true);
}

} // namespace detail

} // namespace sps::interp
