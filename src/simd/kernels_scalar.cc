/// \file kernels_scalar.cc
/// Scalar reference kernels: the byte-identity oracle every vector
/// kernel is tested against, and the active table under
/// FTL_SIMD=scalar or on targets with no vector backend.

#include <algorithm>

#include "simd/kernels_internal.h"

namespace ftl::simd::internal {

void ConvolvePrefixScalar(double* f, size_t new_len, const double* b,
                          size_t m) {
  for (size_t t = new_len; t-- > 0;) {
    size_t jmax = std::min(t, m);
    double acc = 0.0;
    for (size_t j = 0; j <= jmax; ++j) acc += f[t - j] * b[j];
    f[t] = acc;
  }
}

void BernoulliStepScalar(double* f, size_t new_len, double p, double q) {
  for (size_t t = new_len; t-- > 1;) f[t] = f[t] * q + f[t - 1] * p;
  f[0] *= q;
}

const Kernels* GetScalarKernels() {
  static const Kernels k = {IsaLevel::kScalar, "scalar",
                            &ConvolvePrefixScalar, &BernoulliStepScalar};
  return &k;
}

}  // namespace ftl::simd::internal
