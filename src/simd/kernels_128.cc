/// \file kernels_128.cc
/// 128-bit kernel instantiations: SSE2 on x86-64, NEON on aarch64.
/// Both ISAs are baseline for their platform, so this TU needs no
/// special compile flags and no runtime feature gate.

#include "simd/kernels_internal.h"

#if defined(FTL_SIMD_HAVE_128)

#if defined(__aarch64__)
#include "simd/vec_neon.h"
#else
#include "simd/vec_sse2.h"
#endif

#include "simd/kernels_vec_impl.h"

namespace ftl::simd::internal {

namespace {
#if defined(__aarch64__)
using Traits = NeonTraits;
constexpr const char* kName = "neon";
#else
using Traits = Sse2Traits;
constexpr const char* kName = "sse2";
#endif
}  // namespace

const Kernels* Get128Kernels() {
  static const Kernels k = {IsaLevel::kSimd128, kName,
                            &ConvolvePrefixVec<Traits>,
                            &BernoulliStepVec<Traits>};
  return &k;
}

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_HAVE_128
