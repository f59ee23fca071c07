#include "core/alpha_filter.h"

#include <algorithm>
#include <cmath>

#include "stats/poisson_binomial.h"
#include "util/stopwatch.h"

namespace ftl::core {

namespace {

/// The floor certifies only while P0 = exp(L) > e^-690. Every term of
/// L is one group's n·log1p(−p), and the float sum of non-positive
/// terms is at most each of them, so each group's q^n in the exact
/// path is then built by exp, not by the lgamma fallback, and stays a
/// normal double: the regime DESIGN.md §6's margin covers.
constexpr double kMinLogP0 = -690.0;

constexpr double kUnitRoundoff = 0x1p-53;

}  // namespace

AcceptanceFloor::AcceptanceFloor(const CompatibilityModel& acceptance,
                                 size_t horizon_units)
    : terms_(2 * horizon_units, 0.0), certifies_(true) {
  const std::vector<double>& probs = acceptance.probs();
  for (size_t u = 0; u < horizon_units; ++u) {
    // Units past the model horizon have p = 0, as in GroupsUnder. The
    // margin is derived for groups the exact path convolves, 0 < p < 1
    // (it skips p = 0 and shifts the support for p = 1), so any other
    // p, NaN included, turns the floor off.
    const double p = u < probs.size() ? probs[u] : 0.0;
    certifies_ = certifies_ && p > 0.0 && p < 1.0;
    // The expressions BinomialPmfPrefix evaluates for the same p.
    terms_[2 * u] = std::log1p(-p);
    terms_[2 * u + 1] = p / (1.0 - p);
  }
  margin_factor_ = 1.0 + 1400.0 * kUnitRoundoff *
                             (static_cast<double>(horizon_units) + 11.0);
}

bool AcceptanceFloor::CertainlyRejects(const BucketEvidence& evidence,
                                       double alpha2, size_t rna_min_trials,
                                       double* floor) const {
  // From rna_min_trials informative segments on, the exact path may
  // answer with the RNA, which the floor does not bound.
  const size_t h = terms_.size() / 2;
  if (!certifies_ || !(alpha2 <= 1.0) || evidence.horizon_units() != h ||
      static_cast<size_t>(evidence.informative) >= rna_min_trials) {
    return false;
  }
  // Branch-free over the histogram, as the Chernoff mean: empty units
  // add 0.
  double log_p0 = 0.0;
  double odds = 0.0;
  for (size_t u = 0; u < h; ++u) {
    const double n_u = static_cast<double>(evidence.count[u]);
    log_p0 += n_u * terms_[2 * u];
    odds += n_u * terms_[2 * u + 1];
  }
  if (!(log_p0 > kMinLogP0)) return false;
  double f = std::exp(log_p0);
  if (evidence.k_observed >= 1) f *= 1.0 + odds;
  if (!(f >= alpha2 * margin_factor_)) return false;
  *floor = f;
  return true;
}

AlphaFilter::AlphaFilter(const ModelPair& models,
                         const AlphaFilterParams& params,
                         const AcceptanceFloor* floor)
    : models_(models), params_(params), floor_(floor) {}

AlphaFilterDecision AlphaFilter::Classify(
    const MutualSegmentEvidence& evidence) const {
  AlphaFilterDecision d;
  d.n_segments = evidence.size();
  d.k_observed = evidence.ObservedIncompatible();

  // Phase 1: α1-rejection against the rejection model.
  stats::PoissonBinomial reject_dist(evidence.ProbsUnder(models_.rejection));
  d.p1 = reject_dist.UpperTailPValue(d.k_observed);
  d.survived_rejection = d.p1 >= params_.alpha1;
  if (!d.survived_rejection) return d;

  // Phase 2: α2-acceptance against the acceptance model.
  stats::PoissonBinomial accept_dist(
      evidence.ProbsUnder(models_.acceptance));
  d.p2 = accept_dist.LowerTailPValue(d.k_observed);
  d.accepted = d.p2 < params_.alpha2;
  return d;
}

AlphaFilterDecision AlphaFilter::Classify(
    const BucketEvidence& evidence, stats::GroupedPbWorkspace* ws,
    AlphaFilterStageTimes* stage_times) const {
  AlphaFilterDecision d;
  d.n_segments = static_cast<size_t>(evidence.informative);
  d.k_observed = evidence.k_observed;

  // Phase 1: α1-rejection against the rejection model.
  if (params_.fast_reject && evidence.informative > 0) {
    // Mean under the rejection model, read straight off the bucket
    // histogram — the fast-reject path never materializes trial groups.
    // Unconditional multiply-add: empty units contribute 0, and the
    // branchless loop vectorizes (a skip test on ~half-occupied
    // histograms would mispredict constantly). Units past the model
    // horizon have probability 0, matching GroupsUnder.
    const std::vector<double>& probs = models_.rejection.probs();
    double mu = 0.0;
    const size_t h = std::min(evidence.horizon_units(), probs.size());
    for (size_t u = 0; u < h; ++u) {
      mu += static_cast<double>(evidence.count[u]) * probs[u];
    }
    double nd = static_cast<double>(evidence.informative);
    double kd = static_cast<double>(d.k_observed);
    if (kd > mu && mu > 0.0) {
      // Chernoff bound in KL form (Hoeffding 1963, Theorem 1, which
      // covers heterogeneous Bernoulli sums):
      //   Pr(K >= k) <= exp(-n KL(k/n || mu/n)),
      // at least as tight as the quadratic exp(-2 (k - mu)^2 / n) by
      // Pinsker's inequality, and far tighter when mu/n is small — the
      // typical rejection-model regime, where it discharges most
      // non-matching candidates without touching the pmf.
      double a = kd / nd;
      double b = mu / nd;
      double kl = a * std::log(a / b);
      if (a < 1.0) kl += (1.0 - a) * std::log((1.0 - a) / (1.0 - b));
      double bound = std::exp(-nd * kl);
      if (bound < params_.alpha1) {
        // p1 <= bound < alpha1: same rejection as the exact tail.
        d.p1 = bound;
        d.fast_rejected = true;
        return d;
      }
    }
  }
  // A pair with p2 >= alpha2 is rejected whatever p1 is, so a floor
  // that certifies p2 >= alpha2 decides the pair before any tail is
  // built (DESIGN.md §6).
  double floor = 0.0;
  if (params_.fast_reject && floor_ != nullptr &&
      floor_->CertainlyRejects(evidence, params_.alpha2,
                               params_.tail.rna_min_trials, &floor)) {
    d.p2 = floor;
    d.fast_rejected = true;
    return d;
  }
  // The sampled stage timers wrap the two grouped-kernel stages; when
  // stage_times is null (the hot path) no clock is read.
  Stopwatch sw;
  evidence.GroupsUnder(models_.rejection, &ws->groups);
  if (stage_times != nullptr) {
    stage_times->bucketing_ns +=
        static_cast<int64_t>(sw.ElapsedSeconds() * 1e9);
    sw.Reset();
  }
  stats::GroupedTails rej = stats::GroupedPoissonBinomialTails(
      ws->groups, d.k_observed, params_.tail, ws);
  if (stage_times != nullptr) {
    stage_times->tail_ns += static_cast<int64_t>(sw.ElapsedSeconds() * 1e9);
  }
  d.p1 = rej.upper;
  d.used_rna = !rej.exact;
  d.survived_rejection = d.p1 >= params_.alpha1;
  if (!d.survived_rejection) return d;

  // Phase 2: α2-acceptance against the acceptance model.
  if (stage_times != nullptr) sw.Reset();
  evidence.GroupsUnder(models_.acceptance, &ws->groups);
  if (stage_times != nullptr) {
    stage_times->bucketing_ns +=
        static_cast<int64_t>(sw.ElapsedSeconds() * 1e9);
    sw.Reset();
  }
  stats::GroupedTails acc = stats::GroupedPoissonBinomialTails(
      ws->groups, d.k_observed, params_.tail, ws);
  if (stage_times != nullptr) {
    stage_times->tail_ns += static_cast<int64_t>(sw.ElapsedSeconds() * 1e9);
  }
  d.p2 = acc.lower;
  d.used_rna = d.used_rna || !acc.exact;
  d.accepted = d.p2 < params_.alpha2;
  return d;
}

AlphaFilterDecision AlphaFilter::Classify(
    const traj::Trajectory& p, const traj::Trajectory& q,
    const EvidenceOptions& options) const {
  return Classify(CollectEvidence(p, q, options));
}

}  // namespace ftl::core
