#include "core/naive_bayes.h"

#include <algorithm>
#include <cmath>

namespace ftl::core {

namespace {

/// The only place model probabilities meet std::log: both classifier
/// overloads, the engine's blocking guarantee and the sweep's
/// likelihood ratio all read these values back from the table.
NaiveBayesUnitLogs TabulateUnit(double s_same, double s_diff, double floor) {
  s_same = std::min(1.0 - floor, std::max(floor, s_same));
  s_diff = std::min(1.0 - floor, std::max(floor, s_diff));
  return {std::log(s_same), std::log(1.0 - s_same), std::log(s_diff),
          std::log(1.0 - s_diff)};
}

}  // namespace

NaiveBayesMatcher::NaiveBayesMatcher(const ModelPair& models,
                                     const NaiveBayesParams& params)
    : params_(params) {
  const double phi_r = std::min(1.0 - 1e-12, std::max(1e-12, params.phi_r));
  log_prior_same_ = std::log(phi_r);
  log_prior_diff_ = std::log(1.0 - phi_r);
  const size_t horizon = std::max(models.rejection.horizon_units(),
                                  models.acceptance.horizon_units());
  units_.reserve(horizon);
  for (size_t u = 0; u < horizon; ++u) {
    const auto unit = static_cast<int64_t>(u);
    units_.push_back(TabulateUnit(models.rejection.IncompatProbByUnit(unit),
                                  models.acceptance.IncompatProbByUnit(unit),
                                  params.prob_floor));
  }
  uncovered_ = TabulateUnit(0.0, 0.0, params.prob_floor);
}

NaiveBayesLogLikelihoods NaiveBayesMatcher::LogLikelihoods(
    const BucketEvidence& evidence) const {
  // Units in ascending order, each accumulator summing exactly the
  // terms it summed when the logs were taken inline.
  NaiveBayesLogLikelihoods ll;
  for (size_t u = 0; u < evidence.horizon_units(); ++u) {
    int32_t n_u = evidence.count[u];
    if (n_u == 0) continue;
    const NaiveBayesUnitLogs& t = UnitLogs(static_cast<int64_t>(u));
    int32_t inc = evidence.incompatible[u];
    const double n_inc = static_cast<double>(inc);
    const double n_compat = static_cast<double>(n_u - inc);
    ll.same += n_inc * t.same_incompat + n_compat * t.same_compat;
    ll.diff += n_inc * t.diff_incompat + n_compat * t.diff_compat;
  }
  return ll;
}

NaiveBayesDecision NaiveBayesMatcher::Decide(
    const NaiveBayesLogLikelihoods& ll, size_t n_segments) const {
  NaiveBayesDecision d;
  d.n_segments = n_segments;
  d.log_post_same = log_prior_same_ + ll.same;
  d.log_post_diff = log_prior_diff_ + ll.diff;
  d.same_person = d.log_post_same >= d.log_post_diff;
  return d;
}

NaiveBayesDecision NaiveBayesMatcher::Classify(
    const MutualSegmentEvidence& evidence) const {
  NaiveBayesLogLikelihoods ll;
  for (size_t i = 0; i < evidence.size(); ++i) {
    const NaiveBayesUnitLogs& t = UnitLogs(evidence.units[i]);
    const bool inc = evidence.incompatible[i] != 0;
    ll.same += inc ? t.same_incompat : t.same_compat;
    ll.diff += inc ? t.diff_incompat : t.diff_compat;
  }
  return Decide(ll, evidence.size());
}

NaiveBayesDecision NaiveBayesMatcher::Classify(
    const BucketEvidence& evidence) const {
  return Decide(LogLikelihoods(evidence),
                static_cast<size_t>(evidence.informative));
}

NaiveBayesDecision NaiveBayesMatcher::Classify(
    const traj::Trajectory& p, const traj::Trajectory& q,
    const EvidenceOptions& options) const {
  return Classify(CollectEvidence(p, q, options));
}

NaiveBayesFastReject::NaiveBayesFastReject(const NaiveBayesMatcher& nb,
                                           size_t horizon_units)
    : ratios_(2 * (horizon_units + 1), 0.0) {
  const double lps = nb.log_prior_same();
  const double lpd = nb.log_prior_diff();
  double entry = 0;
  finite_ = std::isfinite(lps) && std::isfinite(lpd);
  for (size_t u = 0; u < horizon_units; ++u) {
    const NaiveBayesUnitLogs& t = nb.UnitLogs(static_cast<int64_t>(u));
    for (double v : {t.same_incompat, t.same_compat, t.diff_incompat,
                     t.diff_compat}) {
      finite_ = finite_ && std::isfinite(v);
      entry = std::max(entry, std::abs(v));
    }
    ratios_[2 * u] = t.same_compat - t.diff_compat;
    ratios_[2 * u + 1] = t.same_incompat - t.diff_incompat;
  }
  gap_ = lpd - lps;
  entry8_ = 8.0 * entry;
  horizon2_ = static_cast<double>(horizon_units) + 2.0;
  priors4_ = 4.0 * (std::abs(lps) + std::abs(lpd));
}

}  // namespace ftl::core
