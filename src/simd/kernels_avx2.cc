/// \file kernels_avx2.cc
/// 256-bit AVX2 kernel instantiations. This TU (alone) is compiled
/// with -mavx2 — but deliberately NOT -mfma, so mul/add sequences stay
/// separate instructions and results remain bit-identical to scalar.
/// Nothing here may run before the dispatcher's runtime CPUID check;
/// the only baseline-safe entry point is the table getter.

#include "simd/kernels_internal.h"

#if defined(FTL_SIMD_HAVE_AVX2)

#include "simd/kernels_vec_impl.h"
#include "simd/vec_avx2.h"

namespace ftl::simd::internal {

const Kernels* GetAvx2Kernels() {
  static const Kernels k = {IsaLevel::kAvx2, "avx2",
                            &ConvolvePrefixVec<Avx2Traits>,
                            &BernoulliStepVec<Avx2Traits>};
  return &k;
}

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_HAVE_AVX2
