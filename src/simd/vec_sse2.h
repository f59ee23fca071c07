#ifndef FTL_SIMD_VEC_SSE2_H_
#define FTL_SIMD_VEC_SSE2_H_

/// \file vec_sse2.h
/// 128-bit x86-64 trait for kernels_vec_impl.h, restricted to the
/// SSE2 baseline (guaranteed on every x86-64 CPU, so the 128-bit table
/// needs no runtime feature check).

#include <cstddef>
#include <emmintrin.h>

namespace ftl::simd::internal {

struct Sse2Traits {
  static constexpr size_t kLanes = 2;
  using F = __m128d;

  static F loadu_f64(const double* p) { return _mm_loadu_pd(p); }
  static void storeu_f64(double* p, F v) { _mm_storeu_pd(p, v); }
  static F set1_f64(double v) { return _mm_set1_pd(v); }
  static F add_f64(F a, F b) { return _mm_add_pd(a, b); }
  static F mul_f64(F a, F b) { return _mm_mul_pd(a, b); }
};

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_VEC_SSE2_H_
