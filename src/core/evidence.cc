#include "core/evidence.h"

#include <algorithm>

#include "traj/alignment.h"

namespace ftl::core {

int64_t MutualSegmentEvidence::ObservedIncompatible() const {
  int64_t k = 0;
  for (uint8_t b : incompatible) k += b;
  return k;
}

std::vector<double> MutualSegmentEvidence::ProbsUnder(
    const CompatibilityModel& model) const {
  std::vector<double> probs;
  probs.reserve(units.size());
  for (int32_t u : units) {
    probs.push_back(model.IncompatProbByUnit(u));
  }
  return probs;
}

MutualSegmentEvidence CollectEvidence(const traj::Trajectory& p,
                                      const traj::Trajectory& q,
                                      const EvidenceOptions& options) {
  MutualSegmentEvidence ev;
  traj::VisitMutualSegments(p, q, [&](const traj::Segment& s) {
    ++ev.total_mutual;
    int64_t dt = s.TimeLengthSeconds();
    int64_t unit =
        (dt + options.time_unit_seconds / 2) / options.time_unit_seconds;
    bool compatible = traj::IsCompatible(s.first, s.second, options.vmax_mps);
    if (unit >= options.horizon_units) {
      if (!compatible) ++ev.beyond_horizon_incompatible;
      return;
    }
    ev.units.push_back(static_cast<int32_t>(unit));
    ev.incompatible.push_back(compatible ? 0 : 1);
  });
  return ev;
}

void BucketEvidence::Reset(size_t horizon_units) {
  count.assign(horizon_units + 1, 0);  // last slot: beyond-horizon
  incompatible.assign(horizon_units + 1, 0);
  informative = 0;
  k_observed = 0;
  total_mutual = 0;
  beyond_horizon_incompatible = 0;
}

void BucketEvidence::GroupsUnder(const CompatibilityModel& model,
                                 std::vector<stats::TrialGroup>* out) const {
  out->clear();
  // Direct read of the model's bucket array; same semantics as
  // IncompatProbByUnit (0 beyond the model horizon) without the
  // per-unit call.
  const std::vector<double>& probs = model.probs();
  const size_t h = horizon_units();
  for (size_t u = 0; u < h; ++u) {
    if (count[u] == 0) continue;
    double p = u < probs.size() ? probs[u] : 0.0;
    out->push_back({p, static_cast<int64_t>(count[u])});
  }
}

namespace {

/// Column accessors: one arithmetic kernel below serves both storage
/// layouts, so AoS and SoA scoring perform identical floating-point
/// operations in identical order — the byte-identical-results contract
/// between the CSV and FTB backends rests on this sharing.
struct AosCols {
  const traj::Record* r;
  int64_t t(size_t i) const { return r[i].t; }
  double x(size_t i) const { return r[i].location.x; }
  double y(size_t i) const { return r[i].location.y; }
};

struct SoaCols {
  const int64_t* ts;
  const double* xs;
  const double* ys;
  int64_t t(size_t i) const { return ts[i]; }
  double x(size_t i) const { return xs[i]; }
  double y(size_t i) const { return ys[i]; }
};

/// The query-hot-path alignment walk, layout-generic: calls
/// sink(u, incompat) once per mutual segment in merged order, with u
/// the segment's time unit clamped to options.horizon_units (the
/// overflow slot) and incompat its 0/1 incompatibility bit, and returns
/// the number of mutual segments. The bucket histogram (CollectEvidence)
/// and the Naïve-Bayes log-ratio sum (SumLogRatios) both walk through
/// here, so they see the same segments from the same arithmetic.
///
/// Mutual segments are exactly the source alternations of the merged
/// order, so instead of the record-by-record merge (one unpredictable
/// branch per record) the loop below walks Q's records and, per Q
/// record, skips the whole run of P records at or before it with a
/// tight scan. Only run boundaries — at most two per Q record — do any
/// segment work. Order and tie-breaking (P-first on equal timestamps)
/// match traj::VisitSegments exactly.
template <typename PC, typename QC, typename Sink>
int64_t WalkMutualSegments(const PC& pc, size_t np, const QC& qc, size_t nq,
                           const EvidenceOptions& options, Sink&& sink) {
  const int64_t tu = options.time_unit_seconds;
  const int64_t half = tu / 2;
  const int64_t horizon = options.horizon_units;
  const double inv_tu = 1.0 / static_cast<double>(tu);
  const double vmax = options.vmax_mps;
  int64_t total_mutual = 0;
  // Branch-free per segment: beyond-horizon units clamp into the
  // overflow slot and the incompatibility bit is handed over as an
  // integer, so the only data-dependent branches left are the (almost
  // never taken) one-off corrections of the reciprocal-multiply
  // division.
  auto mutual = [&](const auto& a, size_t ai, const auto& b, size_t bi) {
    ++total_mutual;
    int64_t dt = b.t(bi) - a.t(ai);  // merge order => non-negative
    double dx = b.x(bi) - a.x(ai);
    double dy = b.y(bi) - a.y(ai);
    double limit = vmax * static_cast<double>(dt);
    int32_t incompat = dx * dx + dy * dy > limit * limit ? 1 : 0;
    // unit = (dt + half) / tu without the integer divide: multiply by
    // the reciprocal, then fix the possible one-off from float rounding.
    int64_t x = dt + half;
    int64_t unit = static_cast<int64_t>(static_cast<double>(x) * inv_tu);
    int64_t r = x - unit * tu;
    unit += (r >= tu) - (r < 0);
    sink(static_cast<size_t>(std::min(unit, horizon)), incompat);
  };
  size_t i = 0;
  for (size_t j = 0; j < nq; ++j) {
    const int64_t tj = qc.t(j);
    if (i < np && pc.t(i) <= tj) {
      // A run of P records enters the merge before q[j]. Its first
      // record closes a Q->P alternation (except before the first Q
      // record, where it has no Q predecessor); interior records form
      // only self-segments; its last record opens the P->Q alternation
      // closed by q[j].
      if (j > 0) mutual(qc, j - 1, pc, i);
      while (i + 1 < np && pc.t(i + 1) <= tj) ++i;
      mutual(pc, i, qc, j);
      ++i;
    }
  }
  // P records after the last Q record: only the first closes an
  // alternation (with the last Q record); the rest are self-segments.
  if (i < np && nq > 0) mutual(qc, nq - 1, pc, i);
  return total_mutual;
}

/// Histogram sink: the bucket evidence both classifiers score from.
template <typename PC, typename QC>
void CollectEvidenceImpl(const PC& pc, size_t np, const QC& qc, size_t nq,
                         const EvidenceOptions& options, BucketEvidence* out) {
  out->Reset(static_cast<size_t>(options.horizon_units));
  int32_t* cnt = out->count.data();
  int32_t* inc = out->incompatible.data();
  const int64_t total_mutual =
      WalkMutualSegments(pc, np, qc, nq, options,
                         [cnt, inc](size_t u, int32_t incompat) {
                           ++cnt[u];
                           inc[u] += incompat;
                         });
  // Fold the histogram into the aggregate counters in one pass.
  int64_t informative = 0, k = 0;
  const size_t h = static_cast<size_t>(options.horizon_units);
  for (size_t u = 0; u < h; ++u) {
    informative += cnt[u];
    k += inc[u];
  }
  out->total_mutual = total_mutual;
  out->informative = informative;
  out->k_observed = k;
  out->beyond_horizon_incompatible = inc[h];
}

/// Log-ratio sink: one running sum in walk order and the informative
/// count, no per-pair buffer at all.
template <typename PC, typename QC>
LogRatioSum SumLogRatiosImpl(const PC& pc, size_t np, const QC& qc, size_t nq,
                             const EvidenceOptions& options,
                             const double* ratio) {
  const size_t h = static_cast<size_t>(options.horizon_units);
  double sum = 0;
  int64_t informative = 0;
  WalkMutualSegments(pc, np, qc, nq, options,
                     [ratio, h, &sum, &informative](size_t u,
                                                    int32_t incompat) {
                       sum += ratio[2 * u + static_cast<size_t>(incompat)];
                       informative += u < h;
                     });
  return {sum, informative};
}

}  // namespace

void CollectEvidence(const traj::Trajectory& p, const traj::Trajectory& q,
                     const EvidenceOptions& options, BucketEvidence* out) {
  CollectEvidenceImpl(AosCols{p.records().data()}, p.size(),
                      AosCols{q.records().data()}, q.size(), options, out);
}

void CollectEvidence(const traj::FlatTrajectoryView& p,
                     const traj::FlatTrajectoryView& q,
                     const EvidenceOptions& options, BucketEvidence* out) {
  CollectEvidenceImpl(SoaCols{p.ts(), p.xs(), p.ys()}, p.size(),
                      SoaCols{q.ts(), q.xs(), q.ys()}, q.size(), options, out);
}

LogRatioSum SumLogRatios(const traj::Trajectory& p, const traj::Trajectory& q,
                         const EvidenceOptions& options, const double* ratio) {
  return SumLogRatiosImpl(AosCols{p.records().data()}, p.size(),
                          AosCols{q.records().data()}, q.size(), options,
                          ratio);
}

LogRatioSum SumLogRatios(const traj::FlatTrajectoryView& p,
                         const traj::FlatTrajectoryView& q,
                         const EvidenceOptions& options, const double* ratio) {
  return SumLogRatiosImpl(SoaCols{p.ts(), p.xs(), p.ys()}, p.size(),
                          SoaCols{q.ts(), q.xs(), q.ys()}, q.size(), options,
                          ratio);
}

void CompactEvidence(const MutualSegmentEvidence& ev, size_t horizon_units,
                     BucketEvidence* out) {
  out->Reset(horizon_units);
  out->total_mutual = ev.total_mutual;
  out->beyond_horizon_incompatible = ev.beyond_horizon_incompatible;
  for (size_t i = 0; i < ev.units.size(); ++i) {
    size_t u = static_cast<size_t>(ev.units[i]);
    if (u >= horizon_units) continue;  // defensive: stale horizon
    ++out->count[u];
    ++out->informative;
    if (ev.incompatible[i]) {
      ++out->incompatible[u];
      ++out->k_observed;
    }
  }
}

}  // namespace ftl::core
