#ifndef FTL_SIMD_KERNELS_H_
#define FTL_SIMD_KERNELS_H_

/// \file kernels.h
/// The vectorized hot-loop kernel table.
///
/// Two loops of the exact Poisson-Binomial tail vectorize profitably
/// (see DESIGN.md §10): the truncated prefix convolution and the
/// Bernoulli DP step. Each is exposed here as a C-style function
/// pointer over raw double arrays — no core/stats types — so the SIMD
/// layer stays at the bottom of the dependency graph and one table can
/// be swapped wholesale by the runtime dispatcher (simd/dispatch.h).
/// The alignment walk that feeds them is not here: it is one scalar
/// walk, core::CollectEvidence, for both storage layouts.
///
/// Bit-identity contract: every implementation of a kernel, at every
/// ISA level, produces byte-identical output to the scalar
/// implementation for all inputs. Both kernels vectorize ACROSS output
/// slots, each output accumulating in the exact scalar order, never
/// across a single output's summation. No FMA contraction is permitted
/// in any kernel TU.

#include <cstddef>

namespace ftl::simd {

/// One in-place backward convolution round of the truncated
/// Poisson-Binomial prefix build (stats/grouped_poisson_binomial.cc):
///   f[t] = sum_{j=0..min(t,m)} f[t-j] * b[j]   for t = new_len-1 .. 0,
/// each output's sum accumulated in ascending-j order from 0.0.
using ConvolvePrefixFn = void (*)(double* f, size_t new_len,
                                  const double* b, size_t m);

/// One in-place backward Bernoulli DP update of the same build:
///   f[t] = f[t] * q + f[t-1] * p   for t = new_len-1 .. 1;  f[0] *= q.
using BernoulliStepFn = void (*)(double* f, size_t new_len, double p,
                                 double q);

/// ISA tiers the dispatcher selects between. kSimd128 is SSE2 on
/// x86-64 and NEON on aarch64 (both baseline for their platform);
/// kAvx2 exists only on x86-64 and is gated on runtime CPUID.
enum class IsaLevel : int {
  kScalar = 0,
  kSimd128 = 1,
  kAvx2 = 2,
};

/// One ISA level's kernel set. Tables are immutable process-lifetime
/// statics; the dispatcher hands out pointers to them.
struct Kernels {
  IsaLevel level = IsaLevel::kScalar;
  const char* name = "scalar";  ///< "scalar" | "sse2" | "neon" | "avx2"
  ConvolvePrefixFn convolve_prefix = nullptr;
  BernoulliStepFn bernoulli_step = nullptr;
};

}  // namespace ftl::simd

#endif  // FTL_SIMD_KERNELS_H_
