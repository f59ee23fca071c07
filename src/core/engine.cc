#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "obs/metrics.h"
#include "stats/grouped_poisson_binomial.h"
#include "traj/alignment.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftl::core {

namespace {

/// Every kStageSampleEvery-th pair per scratch stream pays the stage
/// stopwatches (6-8 clock reads); the rest pay only local integer
/// tallies. Power of two so the modulo is a mask.
constexpr uint32_t kStageSampleEvery = 64;

/// Candidates per ScorePairBatch call: large enough to amortize
/// per-batch setup (classifier views) to noise, small enough that the
/// staging arrays stay cache-resident. A serial run with limits also
/// ends a batch at every check_every boundary.
constexpr size_t kScoreBatchSize = 64;

/// Named obs handles, resolved once per process (registry lookups are
/// mutex-guarded and must stay off the per-query path).
struct EngineMetrics {
  obs::Counter* queries;
  obs::Counter* truncated_deadline;
  obs::Counter* truncated_cancel;
  obs::Counter* candidates;
  obs::Counter* accepted;
  obs::Counter* fast_rejects;
  obs::Counter* nb_rejects;
  obs::Counter* exact_tails;
  obs::Counter* rna_tails;
  obs::Histogram* query_latency_us;
  obs::Histogram* stage_alignment_ns;
  obs::Histogram* stage_bucketing_ns;
  obs::Histogram* stage_tail_ns;
  obs::Histogram* stage_decision_ns;
};

const EngineMetrics& Metrics() {
  static const EngineMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    EngineMetrics em;
    em.queries = &r.GetCounter("ftl_query_total");
    em.truncated_deadline =
        &r.GetCounter("ftl_query_truncated_total{reason=\"deadline\"}");
    em.truncated_cancel =
        &r.GetCounter("ftl_query_truncated_total{reason=\"cancelled\"}");
    em.candidates = &r.GetCounter("ftl_query_candidates_total");
    em.accepted = &r.GetCounter("ftl_query_accepted_total");
    em.fast_rejects = &r.GetCounter("ftl_query_fast_reject_total");
    em.nb_rejects = &r.GetCounter("ftl_query_nb_reject_total");
    em.exact_tails = &r.GetCounter("ftl_query_tail_exact_total");
    em.rna_tails = &r.GetCounter("ftl_query_tail_rna_total");
    em.query_latency_us = &r.GetHistogram("ftl_query_latency_us");
    em.stage_alignment_ns = &r.GetHistogram("ftl_stage_alignment_ns");
    em.stage_bucketing_ns = &r.GetHistogram("ftl_stage_bucketing_ns");
    em.stage_tail_ns = &r.GetHistogram("ftl_stage_tail_ns");
    em.stage_decision_ns = &r.GetHistogram("ftl_stage_decision_ns");
    return em;
  }();
  return m;
}

}  // namespace

Result<Matcher> ParseMatcher(std::string_view name) {
  if (name == "nb") return Matcher::kNaiveBayes;
  if (name == "alpha") return Matcher::kAlphaFilter;
  return Status::InvalidArgument("unknown matcher '" + std::string(name) +
                                 "' (expected nb | alpha)");
}

Status QueryOptions::Check() const {
  if (cancel.cancel_requested()) {
    return Status::Cancelled("query cancelled by caller");
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

FtlEngine::FtlEngine(EngineOptions options)
    : options_(std::move(options)),
      nb_(models_, options_.naive_bayes) {}

Status FtlEngine::Train(const traj::TrajectoryDatabase& p,
                        const traj::TrajectoryDatabase& q) {
  FTL_FAILPOINT("core.train");
  auto models = BuildModels(p, q, options_.training);
  if (!models.ok()) return models.status();
  models_ = std::move(models).value();
  nb_ = NaiveBayesMatcher(models_, options_.naive_bayes);
  trained_ = true;
  return Status::OK();
}

void FtlEngine::SetModels(ModelPair models) {
  models_ = std::move(models);
  // Models arriving from outside (typically a file) may carry buckets
  // the training data never covered; backfill them so queries over
  // unseen time gaps degrade gracefully instead of scoring against a
  // hard zero. No-op for freshly trained models: the trainer already
  // fills every bucket.
  models_.rejection.RepairUnsupportedBuckets();
  models_.acceptance.RepairUnsupportedBuckets();
  nb_ = NaiveBayesMatcher(models_, options_.naive_bayes);
  trained_ = true;
}

EvidenceOptions FtlEngine::evidence_options() const {
  EvidenceOptions ev;
  ev.vmax_mps = options_.training.vmax_mps;
  ev.time_unit_seconds = options_.training.time_unit_seconds;
  ev.horizon_units = options_.training.horizon_units;
  return ev;
}

namespace {

/// Evidence collection entry of the scoring hot path: the SoA overload
/// threads the per-thread kernel scratch through to the vector
/// kernels; the AoS overload has no use for it (that path stays on the
/// layout-generic scalar kernel, the byte-identity oracle).
inline void CollectEvidenceDispatch(const traj::Trajectory& q,
                                    const traj::Trajectory& c,
                                    const EvidenceOptions& opts,
                                    BucketEvidence* out,
                                    simd::EvidenceScratch* /*scratch*/) {
  CollectEvidence(q, c, opts, out);
}

inline void CollectEvidenceDispatch(const traj::FlatTrajectoryView& q,
                                    const traj::FlatTrajectoryView& c,
                                    const EvidenceOptions& opts,
                                    BucketEvidence* out,
                                    simd::EvidenceScratch* scratch) {
  CollectEvidence(q, c, opts, out, scratch);
}

/// Warms the next batch slot's candidate while the current pair
/// scores. Streaming a database larger than L1 otherwise starts every
/// pair with demand misses down the candidate's columns — a cost the
/// alignment merge then eats serially.
inline void PrefetchSpan(const void* p, size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(c + off, /*rw=*/0, /*locality=*/3);
  }
}

inline void PrefetchCandidate(const traj::Trajectory& t) {
  PrefetchSpan(t.records().data(), t.records().size() * sizeof(traj::Record));
}

inline void PrefetchCandidate(const traj::FlatTrajectoryView& v) {
  PrefetchSpan(v.ts(), v.size() * sizeof(int64_t));
  PrefetchSpan(v.xs(), v.size() * sizeof(double));
  PrefetchSpan(v.ys(), v.size() * sizeof(double));
}

}  // namespace

template <typename QueryT, typename CandT>
bool FtlEngine::ScoreOne(const QueryT& query, const CandT& cand,
                         Matcher matcher, const EvidenceOptions& ev_opts,
                         const AlphaFilter& filter, MatchCandidate* out,
                         ScoreScratch* scratch) const {
  // Stage timers are sampled (1 in kStageSampleEvery pairs, always
  // including the first of a stream) so per-stage attribution costs a
  // fraction of a clock read per pair amortized; counters are plain
  // local increments flushed once per query. Neither touches the
  // computation, so results are byte-identical with metrics on.
  const bool sampled =
      (scratch->sample_tick++ & (kStageSampleEvery - 1)) == 0;
  ++scratch->n_candidates;
  int64_t alignment_ns = 0;
  if (sampled) {
    Stopwatch sw;
    CollectEvidenceDispatch(query, cand, ev_opts, &scratch->evidence,
                            &scratch->ev_scratch);
    alignment_ns = static_cast<int64_t>(sw.ElapsedSeconds() * 1e9);
  } else {
    CollectEvidenceDispatch(query, cand, ev_opts, &scratch->evidence,
                            &scratch->ev_scratch);
  }
  const BucketEvidence& ev = scratch->evidence;
  stats::GroupedPbWorkspace& ws = scratch->pb;
  out->k_observed = ev.k_observed;
  out->n_segments = static_cast<size_t>(ev.informative);

  // Grouped Poisson-Binomial tails are computed lazily: the
  // rejection-phase p1 always gates the alpha filter, but p2 — and,
  // for Naive-Bayes, both p-values — are only needed for candidates
  // that enter Q_P, where they drive the Eq. 2 ranking (paper
  // Section V applies the same score to NB candidates).
  auto fill_pvalues = [this, &ev, &ws, out, scratch]() {
    ev.GroupsUnder(models_.rejection, &ws.groups);
    stats::GroupedTails rej = stats::GroupedPoissonBinomialTails(
        ws.groups, out->k_observed, options_.alpha.tail, &ws);
    out->p1 = rej.upper;
    ev.GroupsUnder(models_.acceptance, &ws.groups);
    stats::GroupedTails acc = stats::GroupedPoissonBinomialTails(
        ws.groups, out->k_observed, options_.alpha.tail, &ws);
    out->p2 = acc.lower;
    out->score = out->p1 * (1.0 - out->p2);
    if (rej.exact && acc.exact) {
      ++scratch->n_exact_tail;
    } else {
      ++scratch->n_rna_tail;
    }
  };

  switch (matcher) {
    case Matcher::kAlphaFilter: {
      // Single implementation of the two-phase test (Chernoff–KL
      // fast-reject, truncated exact tails, lazy p2) lives in
      // AlphaFilter; the filter view is constructed once per batch by
      // the caller.
      AlphaFilterDecision decision;
      if (sampled) {
        AlphaFilterStageTimes st;
        Stopwatch sw;
        decision = filter.Classify(ev, &ws, &st);
        int64_t total_ns =
            static_cast<int64_t>(sw.ElapsedSeconds() * 1e9);
        const EngineMetrics& em = Metrics();
        em.stage_alignment_ns->Record(alignment_ns);
        em.stage_bucketing_ns->Record(st.bucketing_ns);
        em.stage_tail_ns->Record(st.tail_ns);
        em.stage_decision_ns->Record(
            std::max<int64_t>(0, total_ns - st.bucketing_ns - st.tail_ns));
      } else {
        decision = filter.Classify(ev, &ws);
      }
      if (decision.fast_rejected) {
        ++scratch->n_fast_reject;
      } else if (decision.used_rna) {
        ++scratch->n_rna_tail;
      } else {
        ++scratch->n_exact_tail;
      }
      out->p1 = decision.p1;
      out->p2 = decision.p2;
      out->score = decision.Score();
      return decision.accepted;
    }
    case Matcher::kNaiveBayes: {
      if (sampled) {
        // NB has no grouped-kernel stage split; its whole
        // classification (plus the lazy p-value fill for accepted
        // candidates) is attributed to the decision stage.
        Stopwatch sw;
        NaiveBayesDecision d = nb_.Classify(ev);
        out->nb_log_odds = d.LogOdds();
        bool same = d.same_person;
        if (same) {
          fill_pvalues();
        } else {
          ++scratch->n_nb_reject;
        }
        const EngineMetrics& em = Metrics();
        em.stage_alignment_ns->Record(alignment_ns);
        em.stage_decision_ns->Record(
            static_cast<int64_t>(sw.ElapsedSeconds() * 1e9));
        return same;
      }
      NaiveBayesDecision d = nb_.Classify(ev);
      out->nb_log_odds = d.LogOdds();
      if (!d.same_person) {
        ++scratch->n_nb_reject;
        return false;
      }
      fill_pvalues();
      return true;
    }
  }
  return false;
}

template <typename QueryT, typename DbT>
void FtlEngine::ScorePairBatch(const QueryT& query, const DbT& db,
                               const size_t* indices, size_t n,
                               Matcher matcher, MatchCandidate* out,
                               uint8_t* accepted,
                               ScoreScratch* scratch) const {
  const EvidenceOptions ev_opts = evidence_options();
  const AlphaFilter filter(models_, options_.alpha);
  for (size_t b = 0; b < n; ++b) {
    // Reset the slot (the staging arrays are reused across batches and
    // accepted candidates are moved out of them).
    out[b] = MatchCandidate{};
    out[b].index = indices[b];
    auto&& cand = db[indices[b]];
    if (b + 1 < n) PrefetchCandidate(db[indices[b + 1]]);
    accepted[b] =
        ScoreOne(query, cand, matcher, ev_opts, filter, &out[b], scratch);
  }
}

template <typename QueryT, typename DbT>
Result<QueryResult> FtlEngine::QueryImpl(
    const QueryT& query, const DbT& db,
    const std::vector<size_t>* candidate_indices, Matcher matcher,
    size_t num_threads, ScoreScratch* scratch,
    const QueryOptions* qopts) const {
  if (!trained_) {
    return Status::FailedPrecondition("FtlEngine query before Train");
  }
  if (db.empty()) {
    return Status::InvalidArgument("candidate database is empty");
  }
  size_t m = candidate_indices ? candidate_indices->size() : db.size();
  if (candidate_indices) {
    for (size_t i : *candidate_indices) {
      if (i >= db.size()) {
        return Status::OutOfRange("candidate index " + std::to_string(i) +
                                  " out of range for database of size " +
                                  std::to_string(db.size()));
      }
    }
  }
  auto candidate_at = [&](size_t i) {
    return candidate_indices ? (*candidate_indices)[i] : i;
  };
  // The non-overlap pre-filter only applies when scoring the whole
  // database; an explicit candidate list is always evaluated.
  auto skip = [&](const auto& cand) {
    return candidate_indices == nullptr &&
           !options_.evaluate_non_overlapping &&
           traj::TimeSpanOverlapSeconds(query, cand) == 0;
  };

  // One query-level stopwatch plus a per-scratch tally flush is the
  // whole per-query metrics cost; per-pair accounting lives in
  // ScoreOne as local integer increments.
  Stopwatch query_sw;
  auto flush_tally = [](ScoreScratch* s) {
    if (s->n_candidates == 0) return;
    const EngineMetrics& em = Metrics();
    em.candidates->Add(s->n_candidates);
    em.fast_rejects->Add(s->n_fast_reject);
    em.nb_rejects->Add(s->n_nb_reject);
    em.exact_tails->Add(s->n_exact_tail);
    em.rna_tails->Add(s->n_rna_tail);
    s->n_candidates = 0;
    s->n_fast_reject = 0;
    s->n_nb_reject = 0;
    s->n_exact_tail = 0;
    s->n_rna_tail = 0;
  };

  // The scoring loop: streams positions [begin, end) of the evaluation
  // order through ScorePairBatch, kScoreBatchSize at a time, and hands
  // every scored candidate to emit(position, result, accepted). A hard
  // injected fault (unlike a fired limit) stops the range and is
  // returned.
  auto score_range = [&](ScoreScratch* s, size_t begin, size_t end,
                         auto&& emit) -> Status {
    size_t idxbuf[kScoreBatchSize];
    size_t posbuf[kScoreBatchSize];
    uint8_t accbuf[kScoreBatchSize];
    s->batch.resize(kScoreBatchSize);
    size_t i = begin;
    while (i < end) {
      size_t nb = 0;
      for (; i < end && nb < kScoreBatchSize; ++i) {
        FTL_FAILPOINT("core.query.candidate");
        size_t idx = candidate_at(i);
        // `auto&&` so the by-value views of a FlatDatabase get lifetime
        // extension while TrajectoryDatabase still binds by reference.
        auto&& cand = db[idx];
        if (skip(cand)) continue;
        idxbuf[nb] = idx;
        posbuf[nb] = i;
        ++nb;
      }
      ScorePairBatch(query, db, idxbuf, nb, matcher, s->batch.data(), accbuf,
                     s);
      for (size_t b = 0; b < nb; ++b) {
        emit(posbuf[b], s->batch[b], accbuf[b] != 0);
      }
    }
    return Status::OK();
  };

  QueryResult result;
  result.evaluated = m;
  size_t workers = ParallelWorkerCount(m, num_threads);
  if (workers <= 1) {
    ScoreScratch local;
    ScoreScratch* s = scratch != nullptr ? scratch : &local;
    // Limits are polled before every check_every-candidate range, so a
    // fired limit truncates at a range boundary.
    const size_t step =
        qopts != nullptr ? std::max<size_t>(1, qopts->check_every) : m;
    auto collect = [&](size_t /*pos*/, MatchCandidate& mc, bool accepted) {
      if (!accepted) return;
      mc.label = db[mc.index].label();
      result.candidates.push_back(std::move(mc));
    };
    for (size_t begin = 0; begin < m; begin += step) {
      if (qopts != nullptr) {
        Status limit = qopts->Check();
        if (!limit.ok()) {
          result.truncated = true;
          result.status = std::move(limit);
          result.evaluated = begin;
          break;
        }
      }
      FTL_RETURN_NOT_OK(
          score_range(s, begin, std::min(m, begin + step), collect));
    }
    flush_tally(s);
  } else {
    // Score into a per-candidate staging area, then collect accepted
    // candidates in evaluation order — byte-identical to the serial
    // loop, regardless of chunk interleaving. Limits are polled once
    // per chunk claim; chunks are claimed monotonically and every
    // claimed chunk completes, so the evaluated candidates always form
    // a contiguous prefix.
    std::vector<MatchCandidate> staged(m);
    std::vector<uint8_t> accepted(m, 0);
    std::vector<ScoreScratch> scratches(workers);
    std::mutex status_mu;
    Status limit_status;
    Status fail_status;
    std::atomic<bool> failed{false};
    auto stop = [&]() {
      if (failed.load(std::memory_order_relaxed)) return true;
      if (qopts == nullptr) return false;
      Status limit = qopts->Check();
      if (limit.ok()) return false;
      std::lock_guard<std::mutex> lock(status_mu);
      if (limit_status.ok()) limit_status = std::move(limit);
      return true;
    };
    auto stage = [&](size_t pos, MatchCandidate& mc, bool acc) {
      staged[pos] = std::move(mc);
      accepted[pos] = acc ? 1 : 0;
    };
    const size_t evaluated = ParallelForWorkers(
        m, num_threads, stop, [&](size_t worker, size_t begin, size_t end) {
          Status st = score_range(&scratches[worker], begin, end, stage);
          if (st.ok()) return;
          std::lock_guard<std::mutex> lock(status_mu);
          if (fail_status.ok()) fail_status = std::move(st);
          failed.store(true, std::memory_order_relaxed);
        });
    for (ScoreScratch& s : scratches) flush_tally(&s);
    if (failed.load(std::memory_order_relaxed)) return fail_status;
    if (!limit_status.ok()) {
      result.truncated = true;
      result.status = limit_status;
      result.evaluated = evaluated;
    }
    for (size_t i = 0; i < result.evaluated; ++i) {
      if (!accepted[i]) continue;
      staged[i].label = db[staged[i].index].label();
      result.candidates.push_back(std::move(staged[i]));
    }
  }
  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const MatchCandidate& a, const MatchCandidate& b) {
                     return a.score > b.score;
                   });
  result.selectiveness = static_cast<double>(result.candidates.size()) /
                         static_cast<double>(db.size());
  const EngineMetrics& em = Metrics();
  em.queries->Add(1);
  if (result.truncated) {
    (result.status.code() == StatusCode::kCancelled ? em.truncated_cancel
                                                    : em.truncated_deadline)
        ->Add(1);
  }
  em.accepted->Add(static_cast<int64_t>(result.candidates.size()));
  em.query_latency_us->Record(
      static_cast<int64_t>(query_sw.ElapsedSeconds() * 1e6));
  return result;
}

Result<QueryResult> FtlEngine::Query(const traj::Trajectory& query,
                                     const traj::TrajectoryDatabase& db,
                                     Matcher matcher,
                                     const QueryOptions* qopts) const {
  return QueryImpl(query, db, nullptr, matcher, options_.num_threads, nullptr,
                   qopts);
}

Result<QueryResult> FtlEngine::Query(const traj::FlatTrajectoryView& query,
                                     const traj::FlatDatabase& db,
                                     Matcher matcher,
                                     const QueryOptions* qopts) const {
  return QueryImpl(query, db, nullptr, matcher, options_.num_threads, nullptr,
                   qopts);
}

Result<QueryResult> FtlEngine::Query(const traj::Trajectory& query,
                                     const traj::TrajectoryDatabase& db,
                                     Matcher matcher,
                                     size_t num_threads) const {
  return QueryImpl(query, db, nullptr, matcher, num_threads, nullptr, nullptr);
}

struct QueryScratch::Impl {
  FtlEngine::ScoreScratch scratch;
};

QueryScratch::QueryScratch() : impl_(std::make_unique<Impl>()) {}
QueryScratch::~QueryScratch() = default;
QueryScratch::QueryScratch(QueryScratch&&) noexcept = default;
QueryScratch& QueryScratch::operator=(QueryScratch&&) noexcept = default;

Result<QueryResult> FtlEngine::QueryWithCandidates(
    const traj::Trajectory& query, const traj::TrajectoryDatabase& db,
    const std::vector<size_t>& candidate_indices, Matcher matcher,
    const QueryOptions* qopts, QueryScratch* scratch) const {
  return QueryImpl(query, db, &candidate_indices, matcher, /*num_threads=*/1,
                   scratch != nullptr ? &scratch->impl_->scratch : nullptr,
                   qopts);
}

Result<QueryResult> FtlEngine::QueryWithCandidates(
    const traj::FlatTrajectoryView& query, const traj::FlatDatabase& db,
    const std::vector<size_t>& candidate_indices, Matcher matcher,
    const QueryOptions* qopts, QueryScratch* scratch) const {
  return QueryImpl(query, db, &candidate_indices, matcher, /*num_threads=*/1,
                   scratch != nullptr ? &scratch->impl_->scratch : nullptr,
                   qopts);
}

BlockingGuarantee FtlEngine::DeriveBlockingGuarantee(Matcher matcher) const {
  BlockingGuarantee g;
  const EvidenceOptions ev = evidence_options();
  const int64_t tu = std::max<int64_t>(ev.time_unit_seconds, 1);
  // A mutual segment is informative iff (dt + tu/2) / tu <
  // horizon_units (round-half-up in CollectEvidence), i.e.
  // dt <= horizon·tu − tu/2 − 1 — the largest informative gap.
  g.horizon_seconds =
      std::max<int64_t>(0, ev.horizon_units * tu - tu / 2 - 1);

  // min_segments sentinel when the models make acceptance impossible;
  // far above any reachable 2·m̂ but free of uint64 overflow.
  constexpr uint64_t kNever = uint64_t{1} << 62;

  if (matcher == Matcher::kNaiveBayes) {
    // Accept ⇔ Σ per-segment LLR >= log(1−φr) − log(φr). Each
    // informative segment contributes at most the best single-unit
    // LLR, so acceptance needs n >= gap / best. Every term is read
    // from the classifier's own log table.
    const double prior_gap = nb_.log_prior_diff() - nb_.log_prior_same();
    if (prior_gap <= 0.0) {
      g.min_segments = 0;  // the prior alone accepts; cannot prune
      return g;
    }
    double best = -std::numeric_limits<double>::infinity();
    for (int64_t u = 0; u < ev.horizon_units; ++u) {
      const NaiveBayesUnitLogs& t = nb_.UnitLogs(u);
      best = std::max(best, t.same_incompat - t.diff_incompat);
      best = std::max(best, t.same_compat - t.diff_compat);
    }
    if (!(best > 0.0)) {
      g.min_segments = kNever;  // no segment favors "same person"
      return g;
    }
    // The 1e-6 absolute margin dominates the classifier's float
    // accumulation error, keeping the bound conservative.
    const double n_min = (prior_gap - 1e-6) / best;
    g.min_segments =
        n_min <= 1.0 ? 1
                     : static_cast<uint64_t>(std::min<double>(
                           std::ceil(n_min), static_cast<double>(kNever)));
    return g;
  }

  // Alpha filter: accept requires p2 < alpha2 with
  // p2 >= Pr(K=0 | Ma) >= (1 − p_max)^n, widened by the sanctioned RNA
  // absolute-error budget plus a float margin. alpha2 > 1 accepts at
  // n = 0 (cannot prune); p_max = 0 makes p2 = 1 for every n (nothing
  // is ever acceptable).
  const double alpha2 = options_.alpha.alpha2;
  if (alpha2 > 1.0) {
    g.min_segments = 0;
    return g;
  }
  const double alpha2_eff =
      alpha2 + options_.alpha.tail.rna_max_abs_error + 1e-6;
  if (alpha2_eff >= 1.0) {
    g.min_segments = 1;  // only n = 0 (p2 = 1 exactly) is excluded
    return g;
  }
  double p_max = 0.0;
  for (int64_t u = 0; u < ev.horizon_units; ++u) {
    p_max = std::max(
        p_max,
        std::min(1.0, std::max(0.0, models_.acceptance.IncompatProbByUnit(u))));
  }
  if (p_max >= 1.0 - 1e-12) {
    g.min_segments = 1;
  } else if (p_max <= 0.0) {
    g.min_segments = kNever;
  } else {
    // (1 − p_max)^n < alpha2_eff ⇒ n > ratio; the widened alpha2_eff
    // already absorbs float slop, keeping floor()+1 conservative.
    const double ratio = std::log(alpha2_eff) / std::log1p(-p_max);
    g.min_segments = static_cast<uint64_t>(std::min<double>(
        std::floor(ratio) + 1.0, static_cast<double>(kNever)));
  }
  return g;
}

template <typename QueryT, typename DbT>
Result<QueryResult> FtlEngine::QueryBlockedImpl(
    const QueryT& query, const DbT& db, const BlockingIndex& index,
    BlockingMode mode, Matcher matcher, BlockingScratch* scratch,
    const QueryOptions* qopts) const {
  if (!trained_) {
    return Status::FailedPrecondition("FtlEngine::QueryBlocked before Train");
  }
  if (mode == BlockingMode::kOff) {
    return QueryImpl(query, db, nullptr, matcher, options_.num_threads,
                     nullptr, qopts);
  }
  if (index.size() != db.size()) {
    return Status::InvalidArgument(
        "blocking index covers " + std::to_string(index.size()) +
        " candidates but the database has " + std::to_string(db.size()));
  }
  BlockingScratch local;
  BlockingScratch* bs = scratch != nullptr ? scratch : &local;
  std::vector<size_t> survivors;
  if (mode == BlockingMode::kGuaranteed) {
    index.GuaranteedCandidates(query, DeriveBlockingGuarantee(matcher), bs,
                               &survivors);
  } else {
    index.Candidates(query, bs, &survivors);
  }
  return QueryImpl(query, db, &survivors, matcher, options_.num_threads,
                   nullptr, qopts);
}

Result<QueryResult> FtlEngine::QueryBlocked(
    const traj::Trajectory& query, const traj::TrajectoryDatabase& db,
    const BlockingIndex& index, BlockingMode mode, Matcher matcher,
    BlockingScratch* scratch, const QueryOptions* qopts) const {
  return QueryBlockedImpl(query, db, index, mode, matcher, scratch, qopts);
}

Result<QueryResult> FtlEngine::QueryBlocked(
    const traj::FlatTrajectoryView& query, const traj::FlatDatabase& db,
    const BlockingIndex& index, BlockingMode mode, Matcher matcher,
    BlockingScratch* scratch, const QueryOptions* qopts) const {
  return QueryBlockedImpl(query, db, index, mode, matcher, scratch, qopts);
}

Result<std::vector<QueryResult>> FtlEngine::BatchQuery(
    const std::vector<traj::Trajectory>& queries,
    const traj::TrajectoryDatabase& db, Matcher matcher,
    const QueryOptions* qopts) const {
  if (!trained_) {
    return Status::FailedPrecondition("FtlEngine::BatchQuery before Train");
  }
  std::vector<QueryResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  // Parallelism is spent across queries; each inner query runs serial
  // on a per-worker scratch that persists across the whole batch.
  size_t workers = ParallelWorkerCount(queries.size(), options_.num_threads);
  std::vector<ScoreScratch> scratches(workers);
  ParallelForWorkers(
      queries.size(), options_.num_threads,
      [&](size_t worker, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          // Cheap pre-check: once the shared limit fires, the queries
          // that have not started get an empty truncated result
          // instead of spinning up just to stop at their first
          // candidate.
          Status limit = qopts != nullptr ? qopts->Check() : Status::OK();
          if (!limit.ok()) {
            results[i].truncated = true;
            results[i].status = std::move(limit);
            results[i].evaluated = 0;
            continue;
          }
          auto r = QueryImpl(queries[i], db, nullptr, matcher, 1,
                             &scratches[worker], qopts);
          if (r.ok()) {
            results[i] = std::move(r).value();
          } else {
            statuses[i] = r.status();
          }
        }
      });
  // A fired limit is reported per query (truncated results above), so
  // only hard errors fail the batch. Aggregate every failure instead of
  // silently dropping all but the first: a batch over a mixed workload
  // should report the full damage.
  size_t failures = 0;
  std::string detail;
  StatusCode first_code = StatusCode::kInternal;
  constexpr size_t kMaxDetailed = 8;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) continue;
    if (failures == 0) first_code = statuses[i].code();
    if (failures < kMaxDetailed) {
      detail += "; query " + std::to_string(i) + ": " +
                statuses[i].ToString();
    }
    ++failures;
  }
  if (failures > 0) {
    std::string msg = "BatchQuery: " + std::to_string(failures) + " of " +
                      std::to_string(queries.size()) + " queries failed" +
                      detail;
    if (failures > kMaxDetailed) {
      msg += "; (" + std::to_string(failures - kMaxDetailed) +
             " more not shown)";
    }
    return Status(first_code, std::move(msg));
  }
  return results;
}

}  // namespace ftl::core
