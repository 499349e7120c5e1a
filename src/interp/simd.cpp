#include "interp/simd.h"

#include <cstdlib>

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
parseSimdBackend(std::string_view name, SimdBackend *out)
{
    for (SimdBackend b : {SimdBackend::Scalar, SimdBackend::Sse2,
                          SimdBackend::Avx2}) {
        if (name == simdBackendName(b)) {
            *out = b;
            return true;
        }
    }
    return false;
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
    SimdBackend best = SimdBackend::Scalar;
    for (SimdBackend b : {SimdBackend::Sse2, SimdBackend::Avx2}) {
        if (simdBackendSupported(b))
            best = b;
    }
    return best;
}

SimdBackend
resolveSimdBackend(const char *scalar_env, const char *backend_env)
{
    if (scalar_env != nullptr && scalar_env[0] != '\0' &&
        std::string_view(scalar_env) != "0")
        return SimdBackend::Scalar;
    if (backend_env != nullptr) {
        SimdBackend requested;
        if (parseSimdBackend(backend_env, &requested)) {
            // Clamp to the best supported tier at or below the request
            // so a pinned backend degrades instead of crashing.
            while (requested != SimdBackend::Scalar &&
                   !simdBackendSupported(requested))
                requested = static_cast<SimdBackend>(
                    static_cast<uint8_t>(requested) - 1);
            return requested;
        }
    }
    return bestSimdBackend();
}

SimdBackend
defaultSimdBackend()
{
    static const SimdBackend b =
        resolveSimdBackend(std::getenv("SPS_INTERP_SCALAR"),
                           std::getenv("SPS_INTERP_BACKEND"));
    return b;
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

bool
parseFusionPolicy(std::string_view name, FusionPolicy *out)
{
    for (FusionPolicy p : {FusionPolicy::Off, FusionPolicy::Partial}) {
        if (name == fusionPolicyName(p)) {
            *out = p;
            return true;
        }
    }
    return false;
}

FusionPolicy
resolveFusionPolicy(const char *fusion_env)
{
    FusionPolicy p = FusionPolicy::Partial;
    if (fusion_env != nullptr)
        parseFusionPolicy(fusion_env, &p);
    return p;
}

FusionPolicy
defaultFusionPolicy()
{
    static const FusionPolicy p =
        resolveFusionPolicy(std::getenv("SPS_INTERP_FUSION"));
    return p;
}

namespace detail {

void
runSpanSimd(SimdBackend backend, const ExecCtx &ctx, int64_t from,
            int64_t to, int ew, int bodyBegin, int bodyEnd, bool latch)
{
#if SPS_HAVE_X86_SIMD
    // An 8-wide strip executor over fewer than 8 lanes would fall
    // through to all-scalar remainders; hand narrow widths to the
    // 4-wide tier instead (which itself scalarizes below 4 lanes).
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
