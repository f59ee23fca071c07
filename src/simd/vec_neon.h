#ifndef FTL_SIMD_VEC_NEON_H_
#define FTL_SIMD_VEC_NEON_H_

/// \file vec_neon.h
/// 128-bit aarch64 NEON trait for kernels_vec_impl.h (ASIMD is
/// baseline on aarch64, so like SSE2 it needs no runtime check).

#include <arm_neon.h>

#include <cstddef>

namespace ftl::simd::internal {

struct NeonTraits {
  static constexpr size_t kLanes = 2;
  using F = float64x2_t;

  static F loadu_f64(const double* p) { return vld1q_f64(p); }
  static void storeu_f64(double* p, F v) { vst1q_f64(p, v); }
  static F set1_f64(double v) { return vdupq_n_f64(v); }
  static F add_f64(F a, F b) { return vaddq_f64(a, b); }
  static F mul_f64(F a, F b) { return vmulq_f64(a, b); }
};

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_VEC_NEON_H_
