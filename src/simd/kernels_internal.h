#ifndef FTL_SIMD_KERNELS_INTERNAL_H_
#define FTL_SIMD_KERNELS_INTERNAL_H_

/// \file kernels_internal.h
/// Library-internal declarations shared by the per-ISA kernel TUs and
/// the dispatcher: the scalar reference kernels and the per-ISA table
/// getters. Not installed; include only from src/simd.

#include <cstddef>

#include "simd/kernels.h"

namespace ftl::simd::internal {

/// Scalar reference kernels (always compiled in).
void ConvolvePrefixScalar(double* f, size_t new_len, const double* b,
                          size_t m);
void BernoulliStepScalar(double* f, size_t new_len, double p, double q);

/// Per-ISA tables. The scalar table always exists; the 128/256-bit
/// getters are compiled only when the target supports them (guarded by
/// FTL_SIMD_HAVE_* definitions from src/simd/CMakeLists.txt).
const Kernels* GetScalarKernels();
#if defined(FTL_SIMD_HAVE_128)
const Kernels* Get128Kernels();
#endif
#if defined(FTL_SIMD_HAVE_AVX2)
const Kernels* GetAvx2Kernels();
#endif

}  // namespace ftl::simd::internal

#endif  // FTL_SIMD_KERNELS_INTERNAL_H_
