#ifndef FTL_SIMD_KERNELS_VEC_IMPL_H_
#define FTL_SIMD_KERNELS_VEC_IMPL_H_

/// \file kernels_vec_impl.h
/// The vector kernels, templated over a lane-width trait type (see
/// vec_sse2.h / vec_avx2.h / vec_neon.h). One implementation serves
/// 128-bit and 256-bit targets; each per-ISA TU instantiates it with
/// its trait and registers the resulting table.
///
/// A trait `T` provides `kLanes`, the f64 vector type `F`, and static
/// wrappers loadu_f64 / storeu_f64 / set1_f64 / add_f64 / mul_f64.
///
/// Bit-identity design (kernels.h): both kernels vectorize across
/// OUTPUT slots, each lane accumulating its own sum in the exact
/// ascending-j scalar order. No trait op may contract mul+add into an
/// FMA (the TUs are compiled without FMA code generation, and the
/// wrappers emit explicit mul/add intrinsics which compilers do not
/// fuse).

#include <cstddef>

#include "simd/kernels_internal.h"

namespace ftl::simd::internal {

template <typename T>
void ConvolvePrefixVec(double* f, size_t new_len, const double* b, size_t m) {
  constexpr size_t W = T::kLanes;
  using F = typename T::F;
  // Vector blocks cover outputs [t-W, t-1], highest first; a block is
  // eligible when its lowest output t-W has the full kernel in range
  // (t-W >= m), so every lane sums the same j = 0..m. In-place safety:
  // a block reads f[t-W-m .. t-1], all below or inside itself, and
  // blocks descend, so every read still sees pre-round values — the
  // same old-value reads as the scalar backward loop.
  size_t t = new_len;
  while (t >= W && t - W >= m) {
    double* base = f + (t - W);
    F acc = T::set1_f64(0.0);
    for (size_t j = 0; j <= m; ++j) {
      acc = T::add_f64(acc, T::mul_f64(T::loadu_f64(base - j),
                                       T::set1_f64(b[j])));
    }
    T::storeu_f64(base, acc);
    t -= W;
  }
  for (size_t tt = t; tt-- > 0;) {
    size_t jmax = tt < m ? tt : m;
    double acc = 0.0;
    for (size_t j = 0; j <= jmax; ++j) acc += f[tt - j] * b[j];
    f[tt] = acc;
  }
}

template <typename T>
void BernoulliStepVec(double* f, size_t new_len, double p, double q) {
  constexpr size_t W = T::kLanes;
  using F = typename T::F;
  const F pv = T::set1_f64(p);
  const F qv = T::set1_f64(q);
  // Outputs [t-W, t-1], all >= 1; reads f[t-W-1 .. t-1] are below or
  // inside the block, untouched by the (higher) blocks already done.
  size_t t = new_len;
  while (t >= W + 1) {
    double* base = f + (t - W);
    F cur = T::loadu_f64(base);
    F below = T::loadu_f64(base - 1);
    T::storeu_f64(base, T::add_f64(T::mul_f64(cur, qv), T::mul_f64(below, pv)));
    t -= W;
  }
  for (size_t tt = t; tt-- > 1;) f[tt] = f[tt] * q + f[tt - 1] * p;
  f[0] *= q;
}

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_KERNELS_VEC_IMPL_H_
