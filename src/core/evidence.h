#ifndef FTL_CORE_EVIDENCE_H_
#define FTL_CORE_EVIDENCE_H_

/// \file evidence.h
/// Extraction of the classification evidence for a trajectory pair: the
/// time-length bucket and observed compatibility bit of every mutual
/// segment in the alignment W_PQ.
///
/// Both classifiers consume the same evidence, so it is collected once
/// per (P, Q) pair and then scored against each model.

#include <cstdint>
#include <vector>

#include "core/compatibility_model.h"
#include "stats/grouped_poisson_binomial.h"
#include "traj/flat_database.h"
#include "traj/trajectory.h"

namespace ftl::core {

/// Per-pair mutual-segment observations.
struct MutualSegmentEvidence {
  /// Bucket index (rounded time units) of each informative mutual
  /// segment, i.e. those within the model horizon. Parallel to
  /// `incompatible`.
  std::vector<int32_t> units;

  /// Observed incompatibility bit b_i per informative mutual segment.
  std::vector<uint8_t> incompatible;

  /// Total mutual segments in the alignment including beyond-horizon
  /// ones (those are always compatible by assumption and carry no
  /// signal, but the count is useful diagnostics).
  int64_t total_mutual = 0;

  /// Beyond-horizon segments observed *incompatible* — physically
  /// impossible under a correct horizon; nonzero values indicate the
  /// horizon/Vmax configuration is too tight for the data.
  int64_t beyond_horizon_incompatible = 0;

  /// Number of informative segments.
  size_t size() const { return units.size(); }

  /// Observed number of incompatible informative segments (the test
  /// statistic K).
  int64_t ObservedIncompatible() const;

  /// Per-segment incompatibility probabilities under `model`
  /// (the Poisson-Binomial parameter vector).
  std::vector<double> ProbsUnder(const CompatibilityModel& model) const;
};

/// Parameters of evidence extraction; must match the models' training
/// discretization.
struct EvidenceOptions {
  double vmax_mps = 120.0 * 1000.0 / 3600.0;
  int64_t time_unit_seconds = 60;
  int64_t horizon_units = 60;
};

/// Streams the alignment of (p, q) and collects evidence.
MutualSegmentEvidence CollectEvidence(const traj::Trajectory& p,
                                      const traj::Trajectory& q,
                                      const EvidenceOptions& options);

/// Bucket-compacted per-pair evidence: the same observations as
/// MutualSegmentEvidence, folded into a per-time-unit histogram. Since
/// a CompatibilityModel assigns one probability per unit, this loses
/// nothing either classifier needs while shrinking per-pair state from
/// O(n) to O(horizon_units) — the representation the query hot path
/// scores from.
struct BucketEvidence {
  /// Informative mutual segments per unit; size = horizon_units + 1.
  /// The last slot is an overflow bucket: beyond-horizon mutual
  /// segments land there unconditionally, which keeps the collection
  /// loop branch-free (no per-segment horizon test). Consumers iterate
  /// units [0, horizon_units()).
  std::vector<int32_t> count;

  /// Observed incompatible segments per unit; parallel to `count`
  /// (including the overflow slot).
  std::vector<int32_t> incompatible;

  /// Number of informative units (excludes the overflow slot).
  size_t horizon_units() const {
    return count.empty() ? 0 : count.size() - 1;
  }

  /// Sum of `count` (the paper's n).
  int64_t informative = 0;

  /// Sum of `incompatible` (the test statistic K).
  int64_t k_observed = 0;

  /// Total mutual segments including beyond-horizon ones.
  int64_t total_mutual = 0;

  /// Beyond-horizon segments observed incompatible (diagnostics; see
  /// MutualSegmentEvidence).
  int64_t beyond_horizon_incompatible = 0;

  /// Zero-fills for a fresh pair, reusing buffer capacity.
  void Reset(size_t horizon_units);

  /// Writes the Poisson-Binomial trial groups of this evidence under
  /// `model` into `out` (cleared first): one group per occupied unit,
  /// probability looked up once per unit instead of once per segment.
  void GroupsUnder(const CompatibilityModel& model,
                   std::vector<stats::TrialGroup>* out) const;
};

/// Streams the alignment of (p, q) and collects bucket-compacted
/// evidence into `out`, reusing its buffers. The allocation-free
/// counterpart of CollectEvidence for the query hot path.
void CollectEvidence(const traj::Trajectory& p, const traj::Trajectory& q,
                     const EvidenceOptions& options, BucketEvidence* out);

/// SoA overload: streams the evidence straight out of contiguous
/// columns (FlatTrajectoryView). Both overloads run one walk over
/// layout-specific column accessors, so they perform the same
/// arithmetic in the same order and AoS and SoA results are
/// byte-identical for equal record data.
void CollectEvidence(const traj::FlatTrajectoryView& p,
                     const traj::FlatTrajectoryView& q,
                     const EvidenceOptions& options, BucketEvidence* out);

/// Sum of a per-(unit, bit) table over the mutual segments of one
/// alignment, and how many of them are informative.
struct LogRatioSum {
  double sum = 0;
  int64_t informative = 0;
};

/// Streams the alignment of (p, q) through the same walk as
/// CollectEvidence, but instead of a histogram adds ratio[2·u + b] per
/// mutual segment, in walk order: u is the segment's time unit clamped
/// to options.horizon_units (the overflow slot) and b its
/// incompatibility bit. `ratio` holds 2·(horizon_units + 1) entries;
/// the Naïve-Bayes fast reject passes its log-likelihood ratios, whose
/// overflow pair is 0.
LogRatioSum SumLogRatios(const traj::Trajectory& p, const traj::Trajectory& q,
                         const EvidenceOptions& options, const double* ratio);
LogRatioSum SumLogRatios(const traj::FlatTrajectoryView& p,
                         const traj::FlatTrajectoryView& q,
                         const EvidenceOptions& options, const double* ratio);

/// Folds per-segment evidence into the bucket histogram (used by the
/// streaming linker, whose pair state accumulates incrementally).
void CompactEvidence(const MutualSegmentEvidence& ev, size_t horizon_units,
                     BucketEvidence* out);

}  // namespace ftl::core

#endif  // FTL_CORE_EVIDENCE_H_
