#ifndef FTL_CORE_ALPHA_FILTER_H_
#define FTL_CORE_ALPHA_FILTER_H_

/// \file alpha_filter.h
/// The (α1, α2)-filtering classifier (paper Section IV-D).
///
/// Phase 1 (α1-rejection): under H0 "same person", the incompatible
/// mutual-segment count K is Poisson-Binomial with probabilities from
/// the rejection model; reject the candidate when the upper-tail
/// p-value p1 = Pr(K >= k_obs) < α1.
///
/// Phase 2 (α2-acceptance): under H0 "different persons", K is
/// Poisson-Binomial with probabilities from the acceptance model; accept
/// the candidate when the lower-tail p-value p2 = Pr(K <= k_obs) < α2.
///
/// Ranking score (paper Section V, Eq. 2): v = p1 · (1 − p2).

#include <cstddef>
#include <vector>

#include "core/compatibility_model.h"
#include "core/evidence.h"
#include "core/model_builders.h"
#include "stats/grouped_poisson_binomial.h"

namespace ftl::core {

/// Significance levels for the two phases.
struct AlphaFilterParams {
  double alpha1 = 0.01;  ///< rejection-phase significance
  double alpha2 = 0.05;  ///< acceptance-phase significance

  /// Exact-vs-RNA switch for the grouped-kernel scoring path.
  stats::GroupedTailParams tail;

  /// When true, the grouped-kernel path may reject a candidate from a
  /// bound alone, with the decision of the exact test and no pmf built:
  /// the O(1) Chernoff–KL bound, when exp(-n KL(k/n || mu/n)) < alpha1
  /// proves p1 < alpha1, and then, given an AcceptanceFloor, the
  /// certified p2 floor. The reported p-values of such (discarded)
  /// candidates are the bounds, not the exact tails. False selects the
  /// pure exact path.
  bool fast_reject = true;
};

/// Classification outcome for one (P, Q) pair.
struct AlphaFilterDecision {
  bool survived_rejection = false;  ///< phase 1 ran and p1 >= alpha1
  bool accepted = false;            ///< survived AND p2 < alpha2
  double p1 = 0.0;                  ///< Pr(K >= k | Mr)
  double p2 = 1.0;                  ///< Pr(K <= k | Ma)
  int64_t k_observed = 0;           ///< incompatible informative segments
  size_t n_segments = 0;            ///< informative mutual segments

  /// A bound alone rejected the candidate and no tail was evaluated
  /// (grouped-kernel path only). Either the Chernoff–KL bound decided
  /// phase 1: p1 is the bound, below alpha1. Or the certified floor
  /// decided phase 2 before phase 1 ran: p2 is the floor, at least
  /// alpha2 and at most the exact p2, while p1 stays 0 and
  /// survived_rejection false. Either way Score() is 0.
  bool fast_rejected = false;

  /// At least one evaluated tail answered via the refined normal
  /// approximation instead of the exact convolution.
  bool used_rna = false;

  /// Ranking score v = p1 (1 - p2); higher means more likely a match.
  double Score() const { return p1 * (1.0 - p2); }
};

/// Optional per-stage wall-clock breakdown of the grouped-kernel
/// Classify, filled only when the caller passes a non-null pointer
/// (the engine's sampled stage timers). Durations in nanoseconds.
struct AlphaFilterStageTimes {
  int64_t bucketing_ns = 0;  ///< GroupsUnder under both models
  int64_t tail_ns = 0;       ///< grouped-PB tail evaluation, both phases
};

/// Certified α2 rejection (DESIGN.md §6). A pair is accepted only if
/// p2 = Pr(K <= k | Ma) < alpha2, and for a Poisson-Binomial K
///   Pr(K <= k) >= Pr(K <= min(k, 1)) = P0 · (1 + [k >= 1] Σ_u n_u o_u),
/// with P0 = exp(Σ_u n_u ℓ_u), ℓ_u = log1p(−p_u) and o_u = p_u/(1 − p_u)
/// from the acceptance model. This object tabulates ℓ and o once per
/// model set; a floor that clears alpha2 by the derived margin proves
/// that the exact path rejects the pair, so no tail need be built.
/// Immutable; safe to share.
class AcceptanceFloor {
 public:
  /// Certifies nothing.
  AcceptanceFloor() = default;

  /// Tabulates ℓ and o of `acceptance` for units [0, horizon_units),
  /// the units BucketEvidence of that horizon scores.
  AcceptanceFloor(const CompatibilityModel& acceptance, size_t horizon_units);

  /// True when the floor of `evidence` proves that
  /// Classify(BucketEvidence) finds p2 >= alpha2, so rejects the pair.
  /// Always false unless every tabulated p_u lies in (0, 1), alpha2 <=
  /// 1, the exact convolution would answer (fewer than
  /// `rna_min_trials` informative segments), P0 > e^-690 and the
  /// evidence has the table's horizon. On true, `floor` receives the
  /// floor.
  bool CertainlyRejects(const BucketEvidence& evidence, double alpha2,
                        size_t rna_min_trials, double* floor) const;

  /// The floor must reach alpha2 times this factor, 1 + 1400u(H + 11)
  /// with u = 2^-53 and H the horizon; DESIGN.md §6 derives it.
  double margin_factor() const { return margin_factor_; }

 private:
  /// ℓ_u and o_u at [2u] and [2u + 1].
  std::vector<double> terms_;
  bool certifies_ = false;
  double margin_factor_ = 1.0;
};

/// Stateless classifier over a trained model pair.
class AlphaFilter {
 public:
  /// `models`, and `floor` when given, must outlive the filter. With a
  /// floor built from models.acceptance, the fast path also rejects
  /// the pairs it certifies (AlphaFilterParams::fast_reject).
  AlphaFilter(const ModelPair& models, const AlphaFilterParams& params,
              const AcceptanceFloor* floor = nullptr);

  /// Scores pre-collected evidence. The evidence must have been
  /// extracted with the same discretization as the models.
  AlphaFilterDecision Classify(const MutualSegmentEvidence& evidence) const;

  /// Scores bucket-compacted evidence with the grouped kernel, reusing
  /// `ws` buffers (no allocation after warm-up). Decisions are
  /// identical to the per-segment overload; p-values agree to ~1e-13
  /// on the exact path (see AlphaFilterParams::fast_reject and ::tail
  /// for the two sanctioned deviations; a fast-rejected decision
  /// reports bounds). When `stage_times` is
  /// non-null the bucketing/tail stages are stopwatch-timed into it
  /// (two extra clock reads per stage; pass null on the hot path and
  /// sample).
  AlphaFilterDecision Classify(const BucketEvidence& evidence,
                               stats::GroupedPbWorkspace* ws,
                               AlphaFilterStageTimes* stage_times =
                                   nullptr) const;

  /// Convenience: collects evidence for (p, q) and classifies.
  AlphaFilterDecision Classify(const traj::Trajectory& p,
                               const traj::Trajectory& q,
                               const EvidenceOptions& options) const;

  const AlphaFilterParams& params() const { return params_; }

 private:
  const ModelPair& models_;
  AlphaFilterParams params_;
  const AcceptanceFloor* floor_;
};

}  // namespace ftl::core

#endif  // FTL_CORE_ALPHA_FILTER_H_
