#ifndef FTL_CORE_NAIVE_BAYES_H_
#define FTL_CORE_NAIVE_BAYES_H_

/// \file naive_bayes.h
/// The Naïve-Bayes-matching classifier (paper Section IV-E).
///
/// Given the compatibility bit vector (b_1 ... b_n) of the informative
/// mutual segments, pick argmax_M Pr(M) · Pr((b_i) | M) over
/// M ∈ {Mr (same person), Ma (different persons)} with
/// Pr((b_i)|M) = Π_i s^(l_i)^{b_i} (1 − s^(l_i))^{1−b_i}.
/// Priors: φr = Pr(Mr), φa = 1 − φr.

#include <cstdint>
#include <vector>

#include "core/compatibility_model.h"
#include "core/evidence.h"
#include "core/model_builders.h"

namespace ftl::core {

/// Naïve-Bayes matcher parameters.
struct NaiveBayesParams {
  /// Prior probability φr that a pair of trajectories is of the same
  /// person. In practice a strictness knob: larger values loosen
  /// candidate selection (paper Section IV-E).
  double phi_r = 0.01;

  /// Probability clamp applied to model buckets so a single zero/one
  /// bucket cannot produce an infinite log-likelihood.
  double prob_floor = 1e-6;
};

/// Classification outcome for one (P, Q) pair.
struct NaiveBayesDecision {
  bool same_person = false;   ///< argmax model is Mr
  double log_post_same = 0;   ///< log [φr · Pr(b | Mr)]
  double log_post_diff = 0;   ///< log [φa · Pr(b | Ma)]
  size_t n_segments = 0;

  /// Posterior log-odds of "same person"; > 0 iff same_person.
  double LogOdds() const { return log_post_same - log_post_diff; }
};

/// Prior-free log-likelihoods of one pair's evidence.
struct NaiveBayesLogLikelihoods {
  double same = 0;  ///< log Pr(b | Mr)
  double diff = 0;  ///< log Pr(b | Ma)
};

/// The four log terms one time unit can contribute, with each model's
/// probability s clamped to [prob_floor, 1 − prob_floor].
struct NaiveBayesUnitLogs {
  double same_incompat = 0;  ///< log s_r
  double same_compat = 0;    ///< log(1 − s_r)
  double diff_incompat = 0;  ///< log s_a
  double diff_compat = 0;    ///< log(1 − s_a)
};

/// Naïve-Bayes classifier over a trained model pair. The constructor
/// tabulates every logarithm a decision can need — the clamped
/// log s and log(1 − s) of both models per time unit, and the two
/// log priors — so classifying sums table entries and calls no
/// transcendental function. The matcher keeps no reference to
/// `models`; it is immutable after construction and safe to share
/// across threads.
class NaiveBayesMatcher {
 public:
  NaiveBayesMatcher(const ModelPair& models, const NaiveBayesParams& params);

  /// Scores pre-collected evidence.
  NaiveBayesDecision Classify(const MutualSegmentEvidence& evidence) const;

  /// Scores bucket-compacted evidence: the per-segment likelihood
  /// product folds to one table lookup per occupied bucket, O(H)
  /// instead of O(n).
  NaiveBayesDecision Classify(const BucketEvidence& evidence) const;

  /// Convenience: collects evidence for (p, q) and classifies.
  NaiveBayesDecision Classify(const traj::Trajectory& p,
                              const traj::Trajectory& q,
                              const EvidenceOptions& options) const;

  /// The sums Classify(BucketEvidence) adds the log priors to.
  NaiveBayesLogLikelihoods LogLikelihoods(const BucketEvidence& evidence) const;

  /// Tabulated log terms of time unit `unit`; units the models do not
  /// cover (negative, or beyond both horizons) have s = 0 before the
  /// clamp, exactly as CompatibilityModel::IncompatProbByUnit.
  const NaiveBayesUnitLogs& UnitLogs(int64_t unit) const {
    return unit >= 0 && static_cast<uint64_t>(unit) < units_.size()
               ? units_[static_cast<size_t>(unit)]
               : uncovered_;
  }

  double log_prior_same() const { return log_prior_same_; }  ///< log φr
  double log_prior_diff() const { return log_prior_diff_; }  ///< log(1 − φr)

  const NaiveBayesParams& params() const { return params_; }

 private:
  /// Adds the log priors to `ll` and picks the larger posterior.
  NaiveBayesDecision Decide(const NaiveBayesLogLikelihoods& ll,
                            size_t n_segments) const;

  NaiveBayesParams params_;
  double log_prior_same_ = 0;
  double log_prior_diff_ = 0;
  /// One entry per unit up to the longer model's horizon.
  std::vector<NaiveBayesUnitLogs> units_;
  NaiveBayesUnitLogs uncovered_;
};

}  // namespace ftl::core

#endif  // FTL_CORE_NAIVE_BAYES_H_
