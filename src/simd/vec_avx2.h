#ifndef FTL_SIMD_VEC_AVX2_H_
#define FTL_SIMD_VEC_AVX2_H_

/// \file vec_avx2.h
/// 256-bit AVX2 trait for kernels_vec_impl.h. Only included from the
/// TU compiled with -mavx2 (kernels_avx2.cc); the dispatcher gates
/// execution behind a runtime CPUID check. Explicit mul/add intrinsics
/// throughout — never FMA — to keep results bit-identical to scalar.

#include <cstddef>
#include <immintrin.h>

namespace ftl::simd::internal {

struct Avx2Traits {
  static constexpr size_t kLanes = 4;
  using F = __m256d;

  static F loadu_f64(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu_f64(double* p, F v) { _mm256_storeu_pd(p, v); }
  static F set1_f64(double v) { return _mm256_set1_pd(v); }
  static F add_f64(F a, F b) { return _mm256_add_pd(a, b); }
  static F mul_f64(F a, F b) { return _mm256_mul_pd(a, b); }
};

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_VEC_AVX2_H_
